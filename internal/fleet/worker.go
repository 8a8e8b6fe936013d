package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"orochi/internal/cas"
	"orochi/internal/encio"
	"orochi/internal/epoch"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/verifier"
)

// WorkerOptions configures a fleet audit worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (scheme://host:port).
	Coordinator string
	// Artifacts is the base URL of the artifact server epochs are read
	// from; empty means the coordinator's own (the common co-mounted
	// setup). Initial-state snapshots always come from the coordinator's
	// host, which serves the chain store it files them in.
	Artifacts string
	// Name identifies this worker in leases, forensics, and metrics
	// (default "host:pid").
	Name string
	// Key is the shared fleet HMAC key; must match the coordinator's.
	Key []byte
	// Hot is the local chunk cache composed over the remote store
	// (default an in-memory store; the CLI offers an on-disk one). A
	// warm cache is the whole point: only missing chunks cross the
	// wire.
	Hot cas.Store
	// Client is the HTTP client for coordinator and artifact traffic
	// (default: 60s timeout).
	Client *http.Client
	// Verify configures the verifier, exactly as a local audit would
	// (engine, audit workers, dedup).
	Verify verifier.Options
	// InitPoll is the back-off before asking again for a trusted initial
	// state after the coordinator's long poll timed out (202) or the
	// request failed (default 150ms).
	InitPoll time.Duration
	// OnEpoch, when non-nil, observes each completed assignment (the
	// CLI prints per-epoch progress from it).
	OnEpoch func(EpochReport)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Artifacts == "" {
		o.Artifacts = o.Coordinator
	}
	if o.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if o.Hot == nil {
		o.Hot = cas.NewMemory()
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if o.InitPoll <= 0 {
		o.InitPoll = 150 * time.Millisecond
	}
	return o
}

// EpochReport is one completed assignment, as observed by OnEpoch.
type EpochReport struct {
	Epoch    int64
	Accepted bool
	Reason   string
	// FetchedBytes is the logical size of the chunks pulled from the
	// artifact server for this epoch; LogicalBytes is what its manifest
	// pins. The difference is the local cache's contribution. WireBytes
	// is what crossed the wire for every chunk fetched for the epoch,
	// initial state included, in the at-rest form chunks travel in.
	FetchedBytes int64
	LogicalBytes int64
	WireBytes    int64
	CrossCheck   bool
}

// WorkerStats summarizes a worker run.
type WorkerStats struct {
	Name         string
	Epochs       int
	Accepted     int
	Rejected     int
	Abandoned    int   // leases dropped without a verdict (transport faults, expiry)
	FetchedBytes int64 // logical bytes of fetched epoch chunks
	LogicalBytes int64 // bytes the audited manifests pin
	WireBytes    int64 // bytes on the wire for every fetched chunk
}

// coldTracker wraps the remote chunk store and records whether any Get
// failed for transport reasons (cas.ErrUnavailable). LoadFrom folds
// chunk errors into IntegrityError strings, so the typed sentinel must
// be caught here, during the fetch — a flaky network is retried, never
// posted as audit evidence against the executor.
type coldTracker struct {
	inner       cas.Store
	unavailable atomic.Bool
}

func (t *coldTracker) reset()               { t.unavailable.Store(false) }
func (t *coldTracker) sawUnavailable() bool { return t.unavailable.Load() }

func (t *coldTracker) Get(sha string) ([]byte, error) {
	data, err := t.inner.Get(sha)
	if err != nil && errors.Is(err, cas.ErrUnavailable) {
		t.unavailable.Store(true)
	}
	return data, err
}

func (t *coldTracker) Put(sha string, data []byte) error { return t.inner.Put(sha, data) }

// errAbandoned marks an assignment dropped without a verdict.
var errAbandoned = errors.New("fleet: lease abandoned")

// maxLeaseFailures bounds consecutive failed lease polls (coordinator
// unreachable) before the worker gives up.
const maxLeaseFailures = 20

// fetchRetries bounds the attempts at an artifact or init-state fetch
// that keeps failing transiently before the lease is abandoned.
const fetchRetries = 3

type worker struct {
	opts    WorkerOptions
	prog    *lang.Program
	remote  *cas.HTTPStore // the artifact server's chunks
	tracker *coldTracker
	tiered  *cas.Tiered
	// initRemote is the coordinator's chain store, where initial-state
	// snapshots live (remote itself when one host serves both);
	// initTiered reads it through the same hot cache.
	initRemote *cas.HTTPStore
	initTiered *cas.Tiered
	stats      WorkerStats
}

// RunWorker pulls leases from the coordinator and audits them until the
// chain is fully decided (the coordinator answers done), the context is
// cancelled, or a fatal configuration error (wrong fleet key) occurs.
// The verifier runs exactly as in a local audit — same engine, same
// options — so verdicts are bit-identical to the single-process
// auditor's.
func RunWorker(ctx context.Context, prog *lang.Program, opts WorkerOptions) (WorkerStats, error) {
	opts = opts.withDefaults()
	if opts.Coordinator == "" {
		return WorkerStats{}, errors.New("fleet: worker needs a coordinator URL")
	}
	remote := cas.NewHTTPStore(opts.Artifacts+Prefix, opts.Client)
	initRemote := remote
	if opts.Artifacts != opts.Coordinator {
		initRemote = cas.NewHTTPStore(opts.Coordinator+Prefix, opts.Client)
	}
	tracker := &coldTracker{inner: remote}
	w := &worker{
		opts:       opts,
		prog:       prog,
		remote:     remote,
		tracker:    tracker,
		tiered:     &cas.Tiered{Hot: opts.Hot, Cold: tracker},
		initRemote: initRemote,
		initTiered: &cas.Tiered{Hot: opts.Hot, Cold: initRemote},
		stats:      WorkerStats{Name: opts.Name},
	}
	failures := 0
	abandoned := "" // the lease to name in the next request
	for {
		if err := ctx.Err(); err != nil {
			return w.stats, err
		}
		resp, err := w.lease(abandoned)
		if err != nil {
			if isFatal(err) {
				return w.stats, err
			}
			failures++
			if failures >= maxLeaseFailures {
				return w.stats, fmt.Errorf("fleet: coordinator unreachable: %w", err)
			}
			if !sleepCtx(ctx, 500*time.Millisecond) {
				return w.stats, ctx.Err()
			}
			continue
		}
		failures = 0
		abandoned = ""
		switch {
		case resp.Done:
			return w.stats, nil
		case resp.Lease == nil:
			wait := time.Duration(resp.RetryMS) * time.Millisecond
			if wait <= 0 {
				wait = 300 * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				return w.stats, ctx.Err()
			}
		default:
			if err := w.audit(ctx, resp.Lease); err != nil {
				if errors.Is(err, errAbandoned) {
					w.stats.Abandoned++
					abandoned = resp.Lease.ID
					continue
				}
				return w.stats, err
			}
		}
	}
}

// fatalError wraps errors that must stop the worker (key mismatch,
// verifier faults) rather than abandon one lease.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

func isFatal(err error) bool {
	var fe *fatalError
	return errors.As(err, &fe)
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// lease asks the coordinator for work, handing back the lease the
// worker abandoned since it last asked ("" for none).
func (w *worker) lease(abandoned string) (*LeaseResponse, error) {
	body, err := w.signedPost(w.opts.Coordinator+Prefix+"/lease", LeaseRequest{Worker: w.opts.Name, Abandoned: abandoned})
	if err != nil {
		return nil, err
	}
	var resp LeaseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("fleet: bad lease response: %w", err)
	}
	return &resp, nil
}

// signedPost posts v as signed JSON; see signedPostBody.
func (w *worker) signedPost(url string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return w.signedPostBody(url, "application/json", body)
}

// signedPostBody posts a signed body and returns the (signature-
// verified) response body. Non-2xx statuses are errors; 403 is fatal
// (the fleet key does not match).
func (w *worker) signedPostBody(url, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if sig := Sign(w.opts.Key, body); sig != "" {
		req.Header.Set(SigHeader, sig)
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusForbidden:
		return nil, &fatalError{fmt.Errorf("fleet: coordinator refused the post: %s", firstLine(data))}
	case resp.StatusCode == http.StatusConflict:
		return nil, fmt.Errorf("%w: %s", errStaleLease, firstLine(data))
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		return nil, fmt.Errorf("fleet: %s: unexpected status %s: %s", url, resp.Status, firstLine(data))
	}
	if !VerifySig(w.opts.Key, data, resp.Header.Get(SigHeader)) {
		return nil, &fatalError{errors.New("fleet: coordinator response not signed with the fleet key")}
	}
	return data, nil
}

var errStaleLease = errors.New("fleet: stale lease")

func firstLine(data []byte) string {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	return string(data)
}

// audit runs one leased epoch start to finish: fetch the manifest, the
// artifacts (through the tiered store) and the initial state, prepare
// the epoch with epoch.PrepareEpoch (the local auditor's executor),
// post the candidate final state it fixes, so the worker holding the
// next epoch can start from it, then finish with epoch.Finish and post
// the signed verdict.
func (w *worker) audit(ctx context.Context, l *Lease) error {
	_, logicalStart, wireStart := w.remote.Fetched()
	m, sha, err := w.fetchManifest(ctx, l)
	if err != nil {
		return err
	}
	sealed := &epoch.Sealed{Number: l.Epoch, Manifest: m, ManifestSHA: sha}
	post := VerdictPost{LeaseID: l.ID, Worker: w.opts.Name, Epoch: l.Epoch, ManifestSHA: sha}
	for _, ref := range m.ChunkRefs() {
		post.LogicalBytes += ref.Bytes
	}

	// Reconstruct and verify every artifact against the manifest,
	// retrying transport faults (which are never audit evidence; see
	// coldTracker).
	var loaded *epoch.Loaded
	var loadErr error
	for attempt := 0; ; attempt++ {
		w.tracker.reset()
		loaded, loadErr = epoch.LoadFrom(sealed, w.tiered)
		if loadErr == nil || !w.tracker.sawUnavailable() {
			break
		}
		if attempt+1 >= fetchRetries {
			return fmt.Errorf("%w: epoch %d artifacts unavailable after %d attempts: %v",
				errAbandoned, l.Epoch, attempt+1, loadErr)
		}
		if !sleepCtx(ctx, 250*time.Millisecond) {
			return ctx.Err()
		}
	}
	// The load is the only phase that reads the artifact store, so what
	// it pulled is this epoch's share of the store's running totals.
	_, logicalNow, wireNow := w.remote.Fetched()
	post.FetchedBytes = logicalNow - logicalStart
	post.WireBytes = wireNow - wireStart

	// Initial state: the manifest's own snapshot for the first epoch
	// (PrepareEpoch's default), otherwise what the coordinator hands out
	// as chunk refs — which the verdict names, for the coordinator to
	// check against what it published. Either way its chunks are ones the
	// coordinator holds, so the candidate need not ship them back.
	var init *object.Snapshot
	var held []cas.Ref
	if l.InitManifest {
		if m.Init != nil {
			held = m.Init.Chunks
		}
	} else {
		_, _, initWireStart := w.initRemote.Fetched()
		init, post.InitRefs, err = w.fetchInit(ctx, l)
		_, _, initWireNow := w.initRemote.Fetched()
		post.WireBytes += initWireNow - initWireStart
		if err != nil {
			return err
		}
		held = post.InitRefs
	}

	v, p, err := epoch.PrepareEpoch(ctx, sealed, loaded, loadErr, l.PrevManifestSHA, init, w.opts.Verify)
	if p != nil {
		var snap *object.Snapshot
		if snap, err = p.Candidate(); err != nil {
			return &fatalError{err}
		}
		if err := w.postCandidate(l, snap, held); err != nil {
			return err
		}
		v, err = epoch.Finish(ctx, w.prog, v, p, w.opts.Verify)
	}
	if err != nil {
		if errors.Is(err, verifier.ErrAuditCanceled) {
			return err
		}
		return &fatalError{err}
	}
	post.Accepted, post.Reason, post.Forensics, post.Stats = v.Accepted, v.Reason, v.Forensics, v.Stats
	if err := w.send(&post, nil); err != nil {
		return err
	}
	w.tally(l, &post)
	return nil
}

// postCandidate posts the candidate final state of the leased epoch.
func (w *worker) postCandidate(l *Lease, snap *object.Snapshot, held []cas.Ref) error {
	raw, err := snap.EncodeRaw()
	if err != nil {
		return &fatalError{err}
	}
	cand := VerdictPost{LeaseID: l.ID, Worker: w.opts.Name, Epoch: l.Epoch, ManifestSHA: l.ManifestSHA,
		Candidate: true}
	chunks, err := w.chunkSnapshot(&cand, raw, held)
	if err != nil {
		return &fatalError{err}
	}
	return w.send(&cand, chunks)
}

// chunkSnapshot cuts a candidate final snapshot's raw bytes into chunks,
// fills in post.FinalSnapshot (every ref) and post.Shipped (the chunks
// the coordinator cannot have: those not among the refs of the initial
// state this audit started from, each once), and returns the shipped
// chunks' at-rest bytes. Each new chunk is compressed here, once, in
// parallel with the others: the coordinator stores these bytes as they
// are, and the hot cache takes them too, so auditing the next epoch
// finds its initial state at home.
func (w *worker) chunkSnapshot(post *VerdictPost, raw []byte, held []cas.Ref) ([][]byte, error) {
	known := make(map[string]bool, len(held))
	for _, r := range held {
		known[r.SHA256] = true
	}
	chunks := cas.DefaultChunker.Split(raw)
	for i, chunk := range chunks {
		sha := cas.SumHex(chunk)
		post.FinalSnapshot = append(post.FinalSnapshot, cas.Ref{SHA256: sha, Bytes: int64(len(chunk))})
		if !known[sha] {
			known[sha] = true
			post.Shipped = append(post.Shipped, i)
		}
	}
	storedHot, _ := w.opts.Hot.(interface {
		PutStored(sha string, stored []byte) error
	})
	shipped := make([][]byte, len(post.Shipped))
	err := forEach(len(shipped), func(k int) error {
		i := post.Shipped[k]
		stored, err := encio.Gzip(chunks[i])
		if err != nil {
			return err
		}
		shipped[k] = stored
		// Best effort, like Tiered's promotion: a cache that cannot take
		// the chunk costs a fetch later, nothing else.
		if sha := post.FinalSnapshot[i].SHA256; storedHot != nil {
			_ = storedHot.PutStored(sha, stored)
		} else {
			_ = w.opts.Hot.Put(sha, chunks[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return shipped, nil
}

// fetchManifest pulls the leased epoch's raw manifest bytes and pins
// them against the lease's digest — the worker audits exactly the
// manifest the coordinator walked, or nothing.
func (w *worker) fetchManifest(ctx context.Context, l *Lease) (*epoch.Manifest, string, error) {
	url := fmt.Sprintf("%s%s/epoch/%d/manifest", w.opts.Artifacts, Prefix, l.Epoch)
	var lastErr error
	for attempt := 0; attempt < fetchRetries; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, 250*time.Millisecond) {
			return nil, "", ctx.Err()
		}
		resp, err := w.opts.Client.Get(url)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("fleet: fetch manifest: status %s: %v", resp.Status, err)
			continue
		}
		if got := cas.SumHex(data); got != l.ManifestSHA {
			lastErr = fmt.Errorf("fleet: manifest bytes hash to %.12s, lease pins %.12s", got, l.ManifestSHA)
			continue
		}
		var m epoch.Manifest
		if err := json.Unmarshal(data, &m); err != nil || m.Epoch != l.Epoch {
			// The coordinator never leases a manifest that does not parse,
			// so this is transport corruption or a confused server — abandon.
			lastErr = fmt.Errorf("fleet: undecodable manifest for epoch %d: %v", l.Epoch, err)
			break
		}
		return &m, l.ManifestSHA, nil
	}
	return nil, "", fmt.Errorf("%w: %v", errAbandoned, lastErr)
}

// fetchInit asks the coordinator for the leased epoch's initial state —
// a final snapshot of the previous epoch, published or candidate — and
// assembles it from its chunk refs through the hot cache: a worker that
// audited the previous epoch, or holds the chunks that did not change
// since an earlier one, fetches nothing. The coordinator holds the
// request until the state exists; 202 means it gave up waiting for now
// (each request renews the lease), and 410 means the lease died, the
// chain broke before this epoch, or an earlier epoch needs a worker, so
// the assignment is abandoned.
func (w *worker) fetchInit(ctx context.Context, l *Lease) (*object.Snapshot, []cas.Ref, error) {
	url := fmt.Sprintf("%s%s/epoch/%d/init?lease=%s", w.opts.Coordinator, Prefix, l.Epoch, l.ID)
	failures := 0
	// retry backs off before another attempt, or gives up on the lease
	// after fetchRetries consecutive failures.
	retry := func(cause any) error {
		failures++
		if failures >= fetchRetries {
			return fmt.Errorf("%w: init fetch: %v", errAbandoned, cause)
		}
		if !sleepCtx(ctx, w.opts.InitPoll) {
			return ctx.Err()
		}
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		resp, err := w.opts.Client.Get(url)
		if err != nil {
			if err := retry(err); err != nil {
				return nil, nil, err
			}
			continue
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxPostBytes))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			if rerr != nil {
				if err := retry(rerr); err != nil {
					return nil, nil, err
				}
				continue
			}
			if !VerifySig(w.opts.Key, data, resp.Header.Get(SigHeader)) {
				return nil, nil, &fatalError{errors.New("fleet: init snapshot not signed with the fleet key")}
			}
			var ir InitResponse
			if err := json.Unmarshal(data, &ir); err != nil || ir.Epoch != l.Epoch {
				return nil, nil, &fatalError{fmt.Errorf("fleet: bad init response for epoch %d: %v", l.Epoch, err)}
			}
			raw, err := cas.ReadBlob(w.initTiered, ir.Snapshot)
			if errors.Is(err, cas.ErrUnavailable) {
				// Transport trouble fetching a chunk: ask again.
				if err := retry(err); err != nil {
					return nil, nil, err
				}
				continue
			}
			if err != nil {
				// The coordinator's own store cannot produce a chunk it
				// handed out: nothing a retry or another worker fixes.
				return nil, nil, &fatalError{fmt.Errorf("fleet: init snapshot for epoch %d: %w", l.Epoch, err)}
			}
			snap, err := object.DecodeSnapshotRaw(raw)
			if err != nil {
				return nil, nil, &fatalError{fmt.Errorf("fleet: undecodable init snapshot for epoch %d: %w", l.Epoch, err)}
			}
			return snap, ir.Snapshot, nil
		case http.StatusAccepted:
			failures = 0
			if !sleepCtx(ctx, w.opts.InitPoll) {
				return nil, nil, ctx.Err()
			}
		case http.StatusGone:
			return nil, nil, fmt.Errorf("%w: epoch %d lease gone (expired, the chain broke earlier, or an earlier epoch needs a worker)", errAbandoned, l.Epoch)
		default:
			if err := retry("status " + resp.Status); err != nil {
				return nil, nil, err
			}
		}
	}
}

// send posts a signed candidate or verdict — header plus the snapshot
// chunks it ships. A 409 means the lease expired under us and the epoch
// was reassigned — the post is ignored by the coordinator, and the
// assignment abandoned here.
func (w *worker) send(p *VerdictPost, chunks [][]byte) error {
	body, err := EncodeVerdict(p, chunks)
	if err != nil {
		return &fatalError{err}
	}
	_, err = w.signedPostBody(w.opts.Coordinator+Prefix+"/verdict", "application/octet-stream", body)
	if err != nil {
		if errors.Is(err, errStaleLease) {
			return fmt.Errorf("%w: %v", errAbandoned, err)
		}
		if isFatal(err) {
			return err
		}
		// Transport failure or a refused post: drop the lease here; the
		// next lease request hands it back, so the epoch is reassigned.
		return fmt.Errorf("%w: post: %v", errAbandoned, err)
	}
	return nil
}

// tally adds a posted verdict to the worker's totals.
func (w *worker) tally(l *Lease, p *VerdictPost) {
	w.stats.Epochs++
	if p.Accepted {
		w.stats.Accepted++
	} else {
		w.stats.Rejected++
	}
	w.stats.FetchedBytes += p.FetchedBytes
	w.stats.LogicalBytes += p.LogicalBytes
	w.stats.WireBytes += p.WireBytes
	if w.opts.OnEpoch != nil {
		w.opts.OnEpoch(EpochReport{
			Epoch:        l.Epoch,
			Accepted:     p.Accepted,
			Reason:       p.Reason,
			FetchedBytes: p.FetchedBytes,
			LogicalBytes: p.LogicalBytes,
			WireBytes:    p.WireBytes,
			CrossCheck:   l.CrossCheck,
		})
	}
}
