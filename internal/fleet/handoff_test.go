package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"orochi/internal/apps"
	"orochi/internal/cas"
	"orochi/internal/encio"
	"orochi/internal/epoch"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// wireTap is the workers' http.RoundTripper in hand-off tests: it
// records every init response and which chunk digests were asked for
// over the wire.
type wireTap struct {
	mu      sync.Mutex
	inits   [][]cas.Ref
	fetched map[string]int // chunk digest -> GETs
}

func (w *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	if i := strings.Index(path, "/chunk/"); i >= 0 && req.Method == http.MethodGet {
		w.mu.Lock()
		if w.fetched == nil {
			w.fetched = make(map[string]int)
		}
		w.fetched[path[i+len("/chunk/"):]]++
		w.mu.Unlock()
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && strings.HasSuffix(path, "/init") && resp.StatusCode == http.StatusOK {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var ir InitResponse
		if jerr := json.Unmarshal(body, &ir); jerr != nil {
			return nil, fmt.Errorf("coordinator answered an undecodable init: %w", jerr)
		}
		w.mu.Lock()
		w.inits = append(w.inits, ir.Snapshot)
		w.mu.Unlock()
	}
	return resp, err
}

// sealQuietChain seals a wiki chain whose state stops changing after
// the first burst: each burst of 12 requests views the first pages
// pages in turn, so the first burst fills the render cache and the rest
// only read. Epoch 2 onward ends in exactly the state it started from.
func sealQuietChain(t *testing.T, dir string, pages int) *lang.Program {
	t.Helper()
	app := apps.Wiki()
	prog := app.Compile()
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(app.Schema); err != nil {
		t.Fatal(err)
	}
	// Bodies are unrepetitive so the snapshot cuts into many chunks.
	rng := rand.New(rand.NewSource(5))
	var seed []string
	for i := 0; i < 80; i++ {
		body := make([]byte, 1024)
		rng.Read(body)
		seed = append(seed, fmt.Sprintf("INSERT INTO pages (title, body, touched) VALUES ('Page_%03d', '%x', %d)", i, body, 1000+i))
	}
	if err := srv.Setup(seed); err != nil {
		t.Fatal(err)
	}
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: 20})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		reqs := make([]trace.Input, 12)
		for i := range reqs {
			reqs[i] = trace.Input{Script: "view", Get: map[string]string{"page": fmt.Sprintf("Page_%03d", 7+i%pages)}}
		}
		srv.ServeAllContext(context.Background(), reqs, 2)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return prog
}

// runTappedWorker audits the whole chain behind url with one worker
// whose traffic goes through a wireTap.
func runTappedWorker(t *testing.T, prog *lang.Program, url string) *wireTap {
	t.Helper()
	tap := &wireTap{}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, err := RunWorker(ctx, prog, WorkerOptions{
		Coordinator: url,
		Name:        "tapped",
		Client:      &http.Client{Transport: tap, Timeout: 60 * time.Second},
		InitPoll:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tap
}

// TestWorkerKeepsItsOwnSnapshot: a worker that audited epoch n holds
// every chunk of epoch n+1's initial state — its own redo fixed the
// state the coordinator derived from the same inputs, and it kept it
// cut the same way — so the init hand-off moves a ref list and no chunk.
func TestWorkerKeepsItsOwnSnapshot(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	inManifest := make(map[string]bool)
	for _, s := range sealed {
		for _, r := range s.Manifest.ChunkRefs() {
			inManifest[r.SHA256] = true
		}
	}
	coord, ts := startFleet(t, dir, CoordinatorOptions{})
	tap := runTappedWorker(t, prog, ts.URL)
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !coord.ChainAccepted() || len(tap.inits) != len(sealed)-1 {
		t.Fatalf("accepted=%v, %d init hand-offs for %d epochs", coord.ChainAccepted(), len(tap.inits), len(sealed))
	}
	changed := 0
	prev := sealed[0].Manifest.Init.Chunks
	for i, refs := range tap.inits {
		if want, err := epoch.LoadCheckpointRefs(dir, int64(i+1)); err != nil || !slices.Equal(refs, want) {
			t.Fatalf("epoch %d was handed something other than epoch %d's published state (%v)", i+2, i+1, err)
		}
		for _, r := range refs {
			if !slices.Contains(prev, r) {
				changed++
			}
			// A chunk a manifest also pins is fetched as an artifact.
			if tap.fetched[r.SHA256] > 0 && !inManifest[r.SHA256] {
				t.Fatalf("epoch %d's initial-state chunk %.12s crossed the wire to the worker that produced it", i+2, r.SHA256)
			}
		}
		prev = refs
	}
	if changed == 0 {
		t.Fatal("the workload never changed state; the test proves nothing")
	}
}

// TestWorkerCannotPostState: a worker posts a verdict and nothing else.
// A post that also offers a final state — a verdict marked as a
// candidate and carrying a ref list, or a body that frames chunk bytes
// behind its header — is refused 400, decides nothing and files
// nothing; the same lease then takes the honest verdict, and the state
// published for the epoch is the one the coordinator derived.
func TestWorkerCannotPostState(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	coord, ts := startFleet(t, dir, CoordinatorOptions{To: 1})
	l := leaseFor(t, ts.URL, "w", nil)
	honest := honestVerdict(t, prog, dir, l, "w", nil)
	if !honest.Accepted {
		t.Fatalf("honest audit of epoch 1 rejected: %s", honest.Reason)
	}
	forged := localStates(t, dir)[0]
	derived := refsOf(t, forged)
	forged.Registers["forged"] = int64(1)
	forgedRefs := refsOf(t, forged)
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string // chunks only the offered state has
	for _, r := range forgedRefs {
		if !store.Has(r.SHA256) && !slices.Contains(derived, r) {
			fresh = append(fresh, r.SHA256)
		}
	}
	if len(fresh) == 0 {
		t.Fatal("the offered state shares every chunk with the chain; the test proves nothing")
	}

	header, err := json.Marshal(honest)
	if err != nil {
		t.Fatal(err)
	}
	var candidate map[string]any
	if err := json.Unmarshal(header, &candidate); err != nil {
		t.Fatal(err)
	}
	candidate["candidate"] = true
	candidate["final_snapshot"] = forgedRefs
	if status, body := postJSON(t, ts.URL+Prefix+"/verdict", nil, candidate); status != http.StatusBadRequest {
		t.Fatalf("a verdict offering a state answered %d: %s", status, body)
	}
	raw, err := forged.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	gz, err := encio.Gzip(raw)
	if err != nil {
		t.Fatal(err)
	}
	framed := binary.BigEndian.AppendUint32(nil, uint32(len(header)))
	framed = append(framed, header...)
	framed = binary.BigEndian.AppendUint32(framed, uint32(len(gz)))
	framed = append(framed, gz...)
	if status, body := postBody(t, ts.URL+Prefix+"/verdict", nil, framed); status != http.StatusBadRequest {
		t.Fatalf("a framed body with chunk bytes answered %d: %s", status, body)
	}
	if status, body := postBody(t, ts.URL+Prefix+"/verdict", nil, append(slices.Clone(header), gz...)); status != http.StatusBadRequest {
		t.Fatalf("a verdict trailed by chunk bytes answered %d: %s", status, body)
	}

	if st := coord.Stats(); st.EpochsDecided != 0 {
		t.Fatalf("a refused post was recorded: %+v", st)
	}
	for _, sha := range fresh {
		if store.Has(sha) {
			t.Fatalf("a chunk only the offered state has (%.12s) reached the chain store", sha)
		}
	}
	if status, body := postVerdict(t, ts.URL, nil, honest); status != http.StatusOK {
		t.Fatalf("honest verdict on the kept lease refused: %d %s", status, body)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := coord.Verdicts(); len(v) != 1 || !v[0].Accepted {
		t.Fatalf("epoch 1 should hold one ACCEPT: %+v", v)
	}
	got, err := epoch.LoadCheckpointRefs(dir, 1)
	if err != nil || !slices.Equal(got, derived) {
		t.Fatalf("epoch 1's published state is not the derived one (%v)", err)
	}
}

// TestRestartResumesFromRefListCheckpoint: a restarted coordinator
// hands out the stored checkpoint's ref list as it is. The chunks are
// made unreadable for the restart, so anything that inflated or decoded
// the snapshot would fail.
func TestRestartResumesFromRefListCheckpoint(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	coord1, ts1 := startFleet(t, dir, CoordinatorOptions{To: 2})
	runWorkers(t, prog, ts1.URL, 1, nil)
	if err := coord1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	refs, err := epoch.LoadCheckpointRefs(dir, 2)
	if err != nil || len(refs) == 0 {
		t.Fatalf("epoch 2 left no ref-list checkpoint: %v", err)
	}
	casDir := filepath.Join(dir, epoch.CASDirName)
	if err := os.Rename(casDir, casDir+".away"); err != nil {
		t.Fatal(err)
	}
	coord2, err := NewCoordinator(dir, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("restart touched the snapshot's chunks: %v", err)
	}
	defer coord2.Close()
	got := coord2.Ledger().Init().Refs
	if !slices.Equal(got, refs) || coord2.Ledger().Next() != 3 || len(coord2.Verdicts()) != 2 {
		t.Fatalf("restart did not resume from the checkpoint's ref list: %d refs, %d verdicts", len(got), len(coord2.Verdicts()))
	}
}

// getInit asks for a leased epoch's initial state and reports the
// status and, on 200, the ref list.
func getInit(url string, l *Lease) (int, []cas.Ref, error) {
	resp, err := http.Get(fmt.Sprintf("%s%s/epoch/%d/init?lease=%s", url, Prefix, l.Epoch, l.ID))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var ir InitResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			return 0, nil, err
		}
	}
	return resp.StatusCode, ir.Snapshot, nil
}

// TestInitLongPoll: an init request for a state that does not exist yet
// is held, not bounced — it answers the moment the coordinator has
// derived the previous epoch's final state (each derivation is held
// back here until the test lets it go), answers 410 the moment the
// chain breaks, and answers 202 only when the (fake) clock runs out.
func TestInitLongPoll(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, CoordinatorOptions{leaseTimeout: 30 * time.Second, RetryMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	held := make(chan time.Duration, 8) // one send per request that starts waiting
	timeouts := make(chan time.Time)    // the fake clock: a send times one waiter out
	coord.after = func(d time.Duration) <-chan time.Time {
		held <- d
		return timeouts
	}
	gates := map[int64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	coord.beforeDerive = func(n int64) {
		select {
		case <-gates[n]:
		case <-coord.ctx.Done():
		}
	}
	ts := newFleetServer(t, as, coord)
	// Runs before the server's own cleanup: a failed test must not leave
	// a held request for Close to wait on.
	t.Cleanup(func() { close(timeouts) })

	l1 := leaseFor(t, ts.URL, "a", nil)
	l2 := leaseFor(t, ts.URL, "b", nil)
	l3 := leaseFor(t, ts.URL, "c", nil)
	if l1.Epoch != 1 || l2.Epoch != 2 || l3.Epoch != 3 {
		t.Fatalf("each worker should lease the lowest free epoch: %d %d %d", l1.Epoch, l2.Epoch, l3.Epoch)
	}
	type answer struct {
		status int
		refs   []cas.Ref
		err    error
	}
	ask := func(l *Lease) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			status, refs, err := getInit(ts.URL, l)
			ch <- answer{status, refs, err}
		}()
		select {
		case d := <-held:
			if d != 10*time.Second {
				t.Fatalf("request held for %v, want a third of the 30 s lease", d)
			}
		case a := <-ch:
			t.Fatalf("init request for an undecided epoch was not held: %+v", a)
		case <-time.After(10 * time.Second):
			t.Fatal("init request never reached the wait")
		}
		return ch
	}
	wait := func(ch <-chan answer) answer {
		select {
		case a := <-ch:
			if a.err != nil {
				t.Fatal(a.err)
			}
			return a
		case <-time.After(10 * time.Second):
			t.Fatal("held init request was never answered")
			return answer{}
		}
	}

	// A derived state wakes: epoch 2's holder gets epoch 1's final state
	// while epoch 1 is still undecided.
	w2 := ask(l2)
	state1 := refsOf(t, localStates(t, dir)[0])
	close(gates[1])
	if a := wait(w2); a.status != http.StatusOK || !slices.Equal(a.refs, state1) {
		t.Fatalf("held request answered %d with %d refs after epoch 1's state was derived", a.status, len(a.refs))
	}
	if len(coord.Verdicts()) != 0 {
		t.Fatal("a derived state published a verdict")
	}

	// Timeout: epoch 3 waits on epoch 2; the clock runs out first.
	w3 := ask(l3)
	timeouts <- time.Now()
	if a := wait(w3); a.status != http.StatusAccepted {
		t.Fatalf("timed-out request answered %d, want 202", a.status)
	}

	// Chain break wakes: epoch 2 REJECTs from epoch 1's state, epoch 1's
	// verdict publishes both, and epoch 3's lease is gone.
	w3 = ask(l3)
	reject := VerdictPost{LeaseID: l2.ID, Worker: "b", Epoch: 2, ManifestSHA: l2.ManifestSHA,
		InitRefs: state1, Reason: "output mismatch (test)"}
	if status, body := postVerdict(t, ts.URL, nil, reject); status != http.StatusOK {
		t.Fatalf("epoch 2 REJECT refused: %d %s", status, body)
	}
	if status, body := postVerdict(t, ts.URL, nil, honestVerdict(t, prog, dir, l1, "a", nil)); status != http.StatusOK {
		t.Fatalf("epoch 1 ACCEPT refused: %d %s", status, body)
	}
	if a := wait(w3); a.status != http.StatusGone {
		t.Fatalf("request held across a chain break answered %d, want 410", a.status)
	}
	if v := coord.Verdicts(); coord.ChainAccepted() || len(v) != 2 || !v[0].Accepted || v[1].Accepted {
		t.Fatalf("want epoch 1 ACCEPT, epoch 2 REJECT: %+v", v)
	}
}

// TestArtifactChunkWireForm: a chunk is served as the bytes at rest,
// unopened, labelled gzip, and counted as written. A chunk damaged at
// rest goes out as it is on disk; only asked with ?verify=1 does the
// server check it, answering 502 with the store's own error text — and
// cas.HTTPStore, whose own check the damaged bytes fail, asks exactly
// that, so the damage reaches the worker as evidence and not as a
// transport fault.
func TestArtifactChunkWireForm(t *testing.T) {
	dir := t.TempDir()
	sealTestChain(t, dir)
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(Prefix+"/", as.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ref := sealed[0].Manifest.ChunkRefs()[0]
	path := filepath.Join(dir, epoch.CASDirName, ref.SHA256[:2], ref.SHA256)
	atRest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	get := func(query string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+Prefix+"/chunk/"+ref.SHA256+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", "gzip") // keep net/http from inflating
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp, body := get("")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" || !bytes.Equal(body, atRest) {
		t.Fatalf("chunk served as %d, encoding %q, %d bytes; at rest it is %d bytes",
			resp.StatusCode, resp.Header.Get("Content-Encoding"), len(body), len(atRest))
	}
	if int64(len(atRest)) >= ref.Bytes {
		t.Fatalf("test chunk does not compress (%d at rest, %d logical)", len(atRest), ref.Bytes)
	}
	if st := as.Stats(); st.ChunksServed != 1 || st.BytesServed != int64(len(atRest)) || st.ChunksVerified != 0 {
		t.Fatalf("served counters %+v, want 1 chunk of %d bytes written and none verified", st, len(atRest))
	}

	tamperChunk(t, dir, ref.SHA256)
	damaged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, want := store.Get(ref.SHA256)
	if want == nil {
		t.Fatal("the tampered chunk still reads")
	}
	resp, body = get("")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, damaged) {
		t.Fatalf("damaged chunk served plainly as %d with %d bytes, want 200 with the %d bytes on disk", resp.StatusCode, len(body), len(damaged))
	}
	resp, body = get("?verify=1")
	if resp.StatusCode != http.StatusBadGateway || strings.TrimSpace(string(body)) != want.Error() {
		t.Fatalf("damaged chunk asked with ?verify=1 answered %d %q, want 502 %q", resp.StatusCode, body, want)
	}
	if st := as.Stats(); st.ChunksVerified != 1 {
		t.Fatalf("ChunksVerified = %d after one ?verify=1 request", st.ChunksVerified)
	}
	// The same words are what a remote worker rejects with.
	if _, err := cas.NewHTTPStore(ts.URL+Prefix, nil).Get(ref.SHA256); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("HTTPStore did not relay the store's words: %v", err)
	}
}

// fakeClock is a coordinator clock the test moves by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// referenceAudit runs the sequential in-process audit, with
// checkpoints, on a copy of dir and returns the copy and the chain
// digest it reached.
func referenceAudit(t *testing.T, prog *lang.Program, dir string) (string, string) {
	t.Helper()
	ref := copyChain(t, dir)
	a := localAudit(t, prog, ref, epoch.AuditorOptions{Workers: 1, Checkpoints: true})
	if !a.ChainAccepted() {
		t.Fatalf("reference audit rejected: %+v", a.Verdicts())
	}
	return ref, a.Ledger().ChainSHA()
}

// TestForeignInitVerdictIsDiscarded: a hand-rolled worker posts a
// verdict for epoch 2 audited from a state that is not epoch 1's — the
// honest state plus a register nobody reads, so epoch 2 ACCEPTs from
// it — while epoch 1's holder goes silent. Once an honest worker has
// published epoch 1, that verdict names an initial state the ledger
// never published, so it is discarded (one init mismatch) and epoch 2
// is leased and audited again. The ledger ends on the reference digest,
// and every state it checkpoints is the reference's.
func TestForeignInitVerdictIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	ref, want := referenceAudit(t, prog, dir)
	clock := &fakeClock{now: time.Now()}
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, CoordinatorOptions{leaseTimeout: time.Minute, RetryMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.now = clock.Now
	ts := newFleetServer(t, as, coord)

	silent := leaseFor(t, ts.URL, "a", nil)
	l2 := leaseFor(t, ts.URL, "b", nil)
	if silent.Epoch != 1 || l2.Epoch != 2 {
		t.Fatalf("leases: %d %d", silent.Epoch, l2.Epoch)
	}
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	forged := localStates(t, dir)[0]
	forged.Registers["forged"] = int64(1)
	v := honestVerdict(t, prog, dir, l2, "b", forged)
	if !v.Accepted {
		t.Fatalf("epoch 2 audited from the forged state rejected: %s", v.Reason)
	}
	if status, body := postVerdict(t, ts.URL, nil, v); status != http.StatusOK {
		t.Fatalf("epoch 2 verdict refused: %d %s", status, body)
	}

	clock.Advance(2 * time.Minute) // the silent lease expires
	runWorkers(t, prog, ts.URL, 1, nil)
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.InitMismatches != 1 {
		t.Fatalf("InitMismatches = %d, want 1", st.InitMismatches)
	}
	if !coord.ChainAccepted() || coord.ChainSHA() != want {
		t.Fatalf("ledger ends on %.12s (accepted %v), want the reference %.12s", coord.ChainSHA(), coord.ChainAccepted(), want)
	}
	for _, s := range sealed {
		got, err := epoch.LoadCheckpointRefs(dir, s.Number)
		if err != nil {
			t.Fatal(err)
		}
		if wantRefs, err := epoch.LoadCheckpointRefs(ref, s.Number); err != nil || !slices.Equal(got, wantRefs) {
			t.Fatalf("epoch %d's checkpointed state is not the reference's (%v)", s.Number, err)
		}
	}
}

// TestInitAbandonsForOrphanedEarlierEpoch: worker a leases epoch 1 and
// goes silent; worker b leases epoch 2 and waits for its initial state,
// whose derivation is held back. Once a's lease has timed out nobody
// holds epoch 1, and b — which asks only for init, never for a new
// lease, while it waits — must be told to let go: its init request
// answers 410, its next lease is epoch 1, and it audits the chain to
// the reference digest.
func TestInitAbandonsForOrphanedEarlierEpoch(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	_, want := referenceAudit(t, prog, dir)
	clock := &fakeClock{now: time.Now()}
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, CoordinatorOptions{leaseTimeout: time.Minute, RetryMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.now = clock.Now
	waiting := make(chan struct{}, 1)
	coord.after = func(time.Duration) <-chan time.Time {
		select {
		case waiting <- struct{}{}:
		default:
		}
		ch := make(chan time.Time, 1)
		ch <- time.Time{} // held requests time out at once: 202
		return ch
	}
	release := make(chan struct{})
	coord.beforeDerive = func(int64) {
		select {
		case <-release:
		case <-coord.ctx.Done():
		}
	}
	ts := newFleetServer(t, as, coord)

	if l := leaseFor(t, ts.URL, "a", nil); l.Epoch != 1 {
		t.Fatalf("a leased epoch %d, want 1", l.Epoch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var mu sync.Mutex
	var order []int64
	done := make(chan error, 1)
	var stats WorkerStats
	go func() {
		var err error
		stats, err = RunWorker(ctx, prog, WorkerOptions{Coordinator: ts.URL, Name: "b", InitPoll: time.Millisecond,
			OnEpoch: func(r EpochReport) {
				mu.Lock()
				order = append(order, r.Epoch)
				mu.Unlock()
			}})
		done <- err
	}()
	// Move the clock in two steps, each past an init request of b's, so
	// b's renewals keep its own lease alive while a's runs out.
	for step := 0; step < 2; step++ {
		for seen := 0; seen < 2; seen++ { // the second is surely a request sent after the last step
			select {
			case <-waiting:
			case <-ctx.Done():
				t.Fatal("b never waited for epoch 2's initial state")
			}
		}
		clock.Advance(40 * time.Second)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("worker b: %v (an orphaned epoch 1 must not hold b forever)", err)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if len(order) == 0 || order[0] != 1 || stats.Abandoned != 1 {
		t.Fatalf("b audited epochs %v after %d abandoned leases; want epoch 1 first, after abandoning epoch 2", order, stats.Abandoned)
	}
	if st := coord.Stats(); st.LeasesReassigned != 1 {
		t.Fatalf("%d leases timed out, want a's alone", st.LeasesReassigned)
	}
	if !coord.ChainAccepted() || coord.ChainSHA() != want {
		t.Fatalf("ledger ends on %.12s (accepted %v), want the reference %.12s", coord.ChainSHA(), coord.ChainAccepted(), want)
	}
}

// sealRepeatChain seals a chain of a two-script app whose first request
// inserts one long computed string twice and echoes only its length.
// The string is full of quotes, which the logged SQL doubles, so its
// stored form is in no sealed trace or report: epoch 1's candidate
// state names chunks twice that the chain store lacks.
func sealRepeatChain(t *testing.T, dir string) *lang.Program {
	t.Helper()
	app := &apps.App{Name: "twins", Schema: []string{`CREATE TABLE twins (id INT PRIMARY KEY AUTOINCREMENT, body TEXT)`},
		Sources: map[string]string{
			"twin": `
$s = "";
for ($i = 0; $i < 12000; $i++) {
  $s .= md5("twin " . $i) . "'";
}
db_exec("INSERT INTO twins (body) VALUES (" . db_quote($s) . ")");
db_exec("INSERT INTO twins (body) VALUES (" . db_quote($s) . ")");
echo strlen($s);
`,
			"ping": `echo "pong";`,
		}}
	prog := app.Compile()
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(app.Schema); err != nil {
		t.Fatal(err)
	}
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: 20})
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeAllContext(context.Background(), []trace.Input{{Script: "twin"}}, 1)
	for b := 0; b < 3; b++ {
		reqs := make([]trace.Input, 12)
		for i := range reqs {
			reqs[i] = trace.Input{Script: "ping"}
		}
		srv.ServeAllContext(context.Background(), reqs, 2)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return prog
}

// localStates walks dir's chain the way the local auditor does — each
// epoch prepared (Phases 1–2) from the candidate of the epoch before —
// and returns every epoch's Prepared.Candidate(), up to the first epoch
// that does not prepare.
func localStates(t *testing.T, dir string) []*object.Snapshot {
	t.Helper()
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*object.Snapshot
	var init *object.Snapshot
	prevSHA := ""
	for _, s := range sealed {
		ld, loadErr := epoch.Load(s)
		_, p, err := epoch.PrepareEpoch(context.Background(), s, ld, loadErr, prevSHA, init, verifier.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			break
		}
		if init, err = p.Candidate(); err != nil {
			t.Fatal(err)
		}
		out = append(out, init)
		prevSHA = s.ManifestSHA
	}
	return out
}

// sealWorkload seals w's requests into a chain in dir, served in bursts
// of 16 and cut every epochEvents events.
func sealWorkload(t *testing.T, dir string, w *workload.Workload, epochEvents int) *lang.Program {
	t.Helper()
	prog := w.App.Compile()
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(w.App.Schema); err != nil {
		t.Fatal(err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		t.Fatal(err)
	}
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: epochEvents})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(w.Requests); i += 16 {
		srv.ServeAllContext(context.Background(), w.Requests[i:min(i+16, len(w.Requests))], 4)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCoordinatorStatesMatchLocalCandidates: the state the coordinator
// derives for every epoch, and publishes with its ACCEPT, is the local
// auditor's candidate for that epoch, ref for ref — on wiki, forum and
// hotcrp chains, and on one whose state names a new chunk twice (so two
// goroutines file the same chunk at once). The ledger is the local one.
func TestCoordinatorStatesMatchLocalCandidates(t *testing.T) {
	chains := []struct {
		name string
		seal func(t *testing.T, dir string) *lang.Program
	}{
		{"wiki", sealTestChain},
		{"forum", func(t *testing.T, dir string) *lang.Program {
			return sealWorkload(t, dir, workload.Forum(workload.ForumParams{
				Requests: 160, Topics: 6, Users: 12, GuestRatio: 0.5, Seed: 4}), 60)
		}},
		{"hotcrp", func(t *testing.T, dir string) *lang.Program {
			return sealWorkload(t, dir, workload.HotCRP(workload.DefaultHotCRPParams().Scale(40)), 80)
		}},
		{"repeated chunk", sealRepeatChain},
	}
	for _, c := range chains {
		t.Run(c.name, func(t *testing.T) {
			master := t.TempDir()
			prog := c.seal(t, master)
			sealed, err := epoch.ListSealed(master)
			if err != nil {
				t.Fatal(err)
			}
			states := localStates(t, master)
			if len(sealed) < 3 || len(states) != len(sealed) {
				t.Fatalf("%d epochs sealed, %d prepared: want an honest chain of at least 3", len(sealed), len(states))
			}
			want := normalize(t, singleAudit(t, prog, copyChain(t, master)))
			dir := copyChain(t, master)
			coord, ts := startFleet(t, dir, CoordinatorOptions{})
			runWorkers(t, prog, ts.URL, 2, nil)
			if err := coord.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			requireSameLedger(t, c.name, normalize(t, coord.Verdicts()), want)
			for i, snap := range states {
				got, err := epoch.LoadCheckpointRefs(dir, int64(i+1))
				if err != nil || !slices.Equal(got, refsOf(t, snap)) {
					t.Fatalf("epoch %d: the coordinator's state is not the local candidate (%v)", i+1, err)
				}
			}
			if st := coord.Stats(); st.StatesDerived != int64(len(states)) || st.InitMismatches != 0 {
				t.Fatalf("%d states derived, %d init mismatches; want %d and 0", st.StatesDerived, st.InitMismatches, len(states))
			}
		})
	}
}

// chunkFiles lists the chunk digests in dir's chain store.
func chunkFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	list, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(list))
	for _, sha := range list {
		out[sha] = true
	}
	return out
}

// TestRejectStopsStateDerivation: a report chunk of epoch 2 is
// tampered, so the coordinator's own read of epoch 2 fails its
// integrity check and no state past epoch 1 is derived or filed. Epoch
// 3's init request is held until epoch 2's audit REJECTs it, then
// answers 410, as does epoch 4's; and the ledger is the local one.
func TestRejectStopsStateDerivation(t *testing.T) {
	master := t.TempDir()
	prog := sealTestChain(t, master)
	sealed, err := epoch.ListSealed(master)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 4 {
		t.Fatalf("sealed %d epochs, want >= 4", len(sealed))
	}
	states := localStates(t, master)
	dir := copyChain(t, master)
	earlier := make(map[string]bool)
	for _, r := range sealed[0].Manifest.ChunkRefs() {
		earlier[r.SHA256] = true
	}
	tampered := ""
	for _, r := range sealed[1].Manifest.Reports.Chunks {
		if !earlier[r.SHA256] {
			tampered = r.SHA256
		}
	}
	if tampered == "" {
		t.Fatal("epoch 2's reports share every chunk with epoch 1")
	}
	tamperChunk(t, dir, tampered)
	want := normalize(t, singleAudit(t, prog, copyChain(t, dir)))
	if len(want) != 2 || want[1].Accepted {
		t.Fatalf("the local audit should ACCEPT epoch 1 and REJECT epoch 2: %+v", want)
	}
	before := chunkFiles(t, dir)

	coord, ts := startFleet(t, dir, CoordinatorOptions{})
	var leases []*Lease
	for _, w := range []string{"a", "b", "c", "d"} {
		leases = append(leases, leaseFor(t, ts.URL, w, nil))
	}
	type answer struct {
		status int
		err    error
	}
	held := make(chan answer, 1)
	go func() {
		status, _, err := getInit(ts.URL, leases[2])
		held <- answer{status, err}
	}()
	if status, body := postVerdict(t, ts.URL, nil, honestVerdict(t, prog, dir, leases[0], "a", nil)); status != http.StatusOK {
		t.Fatalf("epoch 1 ACCEPT refused: %d %s", status, body)
	}
	v2 := honestVerdict(t, prog, dir, leases[1], "b", states[0])
	if v2.Accepted || !strings.Contains(v2.Reason, tampered[:12]) {
		t.Fatalf("epoch 2 should REJECT naming the tampered chunk: %+v", v2)
	}
	if status, body := postVerdict(t, ts.URL, nil, v2); status != http.StatusOK {
		t.Fatalf("epoch 2 REJECT refused: %d %s", status, body)
	}
	select {
	case a := <-held:
		if a.err != nil || a.status != http.StatusGone {
			t.Fatalf("epoch 3's init answered %d (%v), want 410", a.status, a.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("epoch 3's init request was never answered")
	}
	if status, _, err := getInit(ts.URL, leases[3]); err != nil || status != http.StatusGone {
		t.Fatalf("epoch 4's init answered %d (%v), want 410", status, err)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireSameLedger(t, "fleet", normalize(t, coord.Verdicts()), want)
	if st := coord.Stats(); st.StatesDerived != 1 {
		t.Fatalf("%d states derived, want epoch 1's alone", st.StatesDerived)
	}
	state1 := refsOf(t, states[0])
	for sha := range chunkFiles(t, dir) {
		if !before[sha] && !slices.ContainsFunc(state1, func(r cas.Ref) bool { return r.SHA256 == sha }) {
			t.Fatalf("chunk %.12s was filed, and it is no chunk of epoch 1's state", sha)
		}
	}
}

// failingPuts is a chain store that reads but cannot write.
type failingPuts struct{ cas.Store }

func (failingPuts) Put(string, []byte) error { return errors.New("disk full") }

// TestStateDerivationStoreFailureIsNotAVerdict: when the chain store
// cannot take a derived state's chunks, the audit stops with an
// internal fault that Wait reports; no verdict is published or
// recorded, nothing is checkpointed, and the workers are let go.
func TestStateDerivationStoreFailureIsNotAVerdict(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, CoordinatorOptions{RetryMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	coord.store = failingPuts{coord.store}
	ts := newFleetServer(t, as, coord)
	runWorkers(t, prog, ts.URL, 2, nil)
	err = coord.Wait(context.Background())
	if err == nil || !strings.Contains(err.Error(), "filing epoch 1's final state") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Wait = %v, want the failed filing of epoch 1's state", err)
	}
	if v := coord.Verdicts(); len(v) != 0 {
		t.Fatalf("a store failure published verdicts: %+v", v)
	}
	if st := coord.Stats(); st.StatesDerived != 0 || st.Broken {
		t.Fatalf("stats after a store failure: %+v", st)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := epoch.OpenDecisionLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if d, ok := log.Get(1); ok {
		t.Fatalf("a store failure recorded a decision: %+v", d)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints")); !os.IsNotExist(err) {
		t.Fatalf("a store failure wrote a checkpoint: %v", err)
	}
}
