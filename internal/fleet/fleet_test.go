package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orochi/internal/cas"
	"orochi/internal/epoch"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/server"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// sealTestChain seals a multi-epoch chunked chain from the faulted wiki
// workload — error responses included, so the fleet equivalence gate
// covers epochs an honest server answered with HTTP 500s.
func sealTestChain(t *testing.T, dir string) *lang.Program {
	t.Helper()
	w := workload.WithErrors(
		workload.Wiki(workload.WikiParams{Requests: 80, Pages: 5, ZipfS: 0.53, Seed: 9}),
		workload.ErrorMixParams{Rate: 0.2, Seed: 9})
	prog := w.App.Compile()
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(w.App.Schema); err != nil {
		t.Fatal(err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		t.Fatal(err)
	}
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(w.Requests); i += 16 {
		end := i + 16
		if end > len(w.Requests) {
			end = len(w.Requests)
		}
		srv.ServeAllContext(context.Background(), w.Requests[i:end], 4)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return prog
}

// copyChain clones a sealed chain directory so each audit configuration
// runs against pristine state (auditors persist decisions).
func copyChain(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// tamperChunk flips one byte inside a stored chunk of dir's chain store.
func tamperChunk(t *testing.T, dir, sha string) {
	t.Helper()
	path := filepath.Join(dir, epoch.CASDirName, sha[:2], sha)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// uniqueChunk returns a chunk referenced by sealed[idx] but by no
// earlier epoch, so tampering it cannot damage the epochs before it.
func uniqueChunk(t *testing.T, sealed []*epoch.Sealed, idx int) string {
	t.Helper()
	prior := make(map[string]bool)
	for i := 0; i < idx; i++ {
		for _, r := range sealed[i].Manifest.ChunkRefs() {
			prior[r.SHA256] = true
		}
	}
	for _, r := range sealed[idx].Manifest.ChunkRefs() {
		if !prior[r.SHA256] {
			return r.SHA256
		}
	}
	t.Fatalf("epoch %d shares every chunk with earlier epochs", sealed[idx].Number)
	return ""
}

// newFleetServer mounts the artifact server and coordinator exactly as
// the -coordinate CLI does: one mux, coordinator patterns beating the
// artifact subtree.
func newFleetServer(t *testing.T, as *ArtifactServer, coord *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(Prefix+"/", as.Handler())
	ch := coord.Handler()
	mux.Handle("POST "+Prefix+"/lease", ch)
	mux.Handle("POST "+Prefix+"/verdict", ch)
	mux.Handle("GET "+Prefix+"/epoch/{n}/init", ch)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// startFleet opens the artifact server + coordinator over dir and
// serves them from one in-process listener.
func startFleet(t *testing.T, dir string, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	if opts.RetryMS == 0 {
		opts.RetryMS = 10
	}
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, newFleetServer(t, as, coord)
}

// runWorkers drives n concurrent workers against url until the chain is
// fully decided, failing the test on any worker error.
func runWorkers(t *testing.T, prog *lang.Program, url string, n int, key []byte) []WorkerStats {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stats := make([]WorkerStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = RunWorker(ctx, prog, WorkerOptions{
				Coordinator: url,
				Name:        fmt.Sprintf("w%d", i),
				Key:         key,
				InitPoll:    10 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return stats
}

// singleAudit runs the in-process auditor to exhaustion on dir.
func singleAudit(t *testing.T, prog *lang.Program, dir string) []epoch.Verdict {
	t.Helper()
	return localAudit(t, prog, dir, epoch.AuditorOptions{}).Verdicts()
}

// normVerdict is the bit-identical surface of a verdict: everything but
// wall-clock timings and cost counters.
type normVerdict struct {
	Epoch       int64
	Accepted    bool
	Reason      string
	Forensics   string
	Events      int
	Requests    int
	ManifestSHA string
	ChainSHA    string
	Adopted     bool
}

func normalize(t *testing.T, vs []epoch.Verdict) []normVerdict {
	t.Helper()
	out := make([]normVerdict, 0, len(vs))
	for _, v := range vs {
		f, err := json.Marshal(v.Forensics)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, normVerdict{
			Epoch:       v.Epoch,
			Accepted:    v.Accepted,
			Reason:      v.Reason,
			Forensics:   string(f),
			Events:      v.Events,
			Requests:    v.Requests,
			ManifestSHA: v.ManifestSHA,
			ChainSHA:    v.ChainSHA,
			Adopted:     v.Adopted,
		})
	}
	return out
}

func requireSameLedger(t *testing.T, label string, got, want []normVerdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, want %d\ngot:  %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: epoch %d verdict diverged\ngot:  %+v\nwant: %+v", label, want[i].Epoch, got[i], want[i])
		}
	}
}

// TestFleetMatchesSingleProcess is the gate: a fleet audit of the same
// chain must produce bit-identical verdicts, forensics, and chain
// ledger digest to the single-process auditor, at worker counts 1, 2,
// and 4 — on a clean faulted-workload chain and on one with a tampered
// chunk mid-chain.
func TestFleetMatchesSingleProcess(t *testing.T) {
	master := t.TempDir()
	prog := sealTestChain(t, master)

	sealed, err := epoch.ListSealed(master)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 3 {
		t.Fatalf("sealed %d epochs, want >= 3", len(sealed))
	}

	tampered := copyChain(t, master)
	sha := uniqueChunk(t, sealed, 1)
	tamperChunk(t, tampered, sha)

	for name, src := range map[string]string{"clean": master, "tampered": tampered} {
		want := normalize(t, singleAudit(t, prog, copyChain(t, src)))
		if name == "tampered" {
			last := want[len(want)-1]
			if last.Accepted || !strings.Contains(last.Reason, sha) {
				t.Fatalf("single-process audit did not reject on the tampered chunk: %+v", last)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			dir := copyChain(t, src)
			coord, ts := startFleet(t, dir, CoordinatorOptions{})
			runWorkers(t, prog, ts.URL, workers, nil)
			if err := coord.Wait(context.Background()); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameLedger(t, label, normalize(t, coord.Verdicts()), want)
			if got, wantOK := coord.ChainAccepted(), name == "clean"; got != wantOK {
				t.Fatalf("%s: ChainAccepted=%v, want %v", label, got, wantOK)
			}
		}
	}
}

// TestFleetCrossCheckAgreement audits every epoch on k=2 replicas: the
// verdicts must still come out identical to the single-process ledger,
// and the cross-check counters must cover every epoch with zero
// mismatches. Worker count 1 exercises the re-grant path (one worker
// supplies both replicas rather than deadlocking).
func TestFleetCrossCheckAgreement(t *testing.T) {
	master := t.TempDir()
	prog := sealTestChain(t, master)
	want := normalize(t, singleAudit(t, prog, copyChain(t, master)))

	for _, workers := range []int{1, 2} {
		label := fmt.Sprintf("workers=%d", workers)
		dir := copyChain(t, master)
		coord, ts := startFleet(t, dir, CoordinatorOptions{CrossCheck: 1})
		runWorkers(t, prog, ts.URL, workers, nil)
		if err := coord.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameLedger(t, label, normalize(t, coord.Verdicts()), want)
		st := coord.Stats()
		if st.EpochsCrossChecked != int64(len(want)) {
			t.Fatalf("%s: cross-checked %d epochs, want %d", label, st.EpochsCrossChecked, len(want))
		}
		if st.CrossCheckMismatches != 0 {
			t.Fatalf("%s: %d cross-check mismatches on an honest fleet", label, st.CrossCheckMismatches)
		}
	}
}

// postJSON posts v as JSON (signed under key when non-empty) and
// returns the response status and body.
func postJSON(t *testing.T, url string, key []byte, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, key, body)
}

// refsOf cuts snap the way the coordinator files a state — canonical
// raw bytes, cut by the default chunker — and returns the refs.
func refsOf(t *testing.T, snap *object.Snapshot) []cas.Ref {
	t.Helper()
	raw, err := snap.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	var refs []cas.Ref
	for _, chunk := range cas.DefaultChunker.Split(raw) {
		refs = append(refs, cas.Ref{SHA256: cas.SumHex(chunk), Bytes: int64(len(chunk))})
	}
	return refs
}

// postVerdict posts v (signed under key when non-empty) and returns the
// response status and body.
func postVerdict(t *testing.T, url string, key []byte, v VerdictPost) (int, []byte) {
	t.Helper()
	return postJSON(t, url+Prefix+"/verdict", key, v)
}

func postBody(t *testing.T, url string, key, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if sig := Sign(key, body); sig != "" {
		req.Header.Set(SigHeader, sig)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// leaseFor pulls one lease for the named worker, failing unless one is
// granted.
func leaseFor(t *testing.T, url, worker string, key []byte) *Lease {
	t.Helper()
	status, body := postJSON(t, url+Prefix+"/lease", key, LeaseRequest{Worker: worker})
	if status != http.StatusOK {
		t.Fatalf("lease for %s: status %d: %s", worker, status, body)
	}
	var resp LeaseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil {
		t.Fatalf("no lease granted to %s: %s", worker, body)
	}
	return resp.Lease
}

// honestVerdict audits the leased epoch locally (straight off disk)
// from init (nil: the manifest's own) and shapes the result as the post
// an honest worker sends.
func honestVerdict(t *testing.T, prog *lang.Program, dir string, l *Lease, worker string, init *object.Snapshot) VerdictPost {
	t.Helper()
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	var target *epoch.Sealed
	for _, s := range sealed {
		if s.Number == l.Epoch {
			target = s
		}
	}
	if target == nil {
		t.Fatalf("epoch %d not sealed in %s", l.Epoch, dir)
	}
	ld, loadErr := epoch.Load(target)
	ctx := context.Background()
	v, p, err := epoch.PrepareEpoch(ctx, target, ld, loadErr, l.PrevManifestSHA, init, verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		if v, err = epoch.Finish(ctx, prog, v, p, verifier.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	post := VerdictPost{
		LeaseID:     l.ID,
		Worker:      worker,
		Epoch:       l.Epoch,
		ManifestSHA: l.ManifestSHA,
		Accepted:    v.Accepted,
		Reason:      v.Reason,
		Forensics:   v.Forensics,
		Stats:       v.Stats,
	}
	if init != nil {
		post.InitRefs = refsOf(t, init)
	}
	return post
}

// TestNewCoordinatorRefusesCrossCheckFraction: a cross-check rate is a
// fraction of epochs. A percentage typed by mistake (50), a rate above
// one, a negative one, or NaN used to mean "every epoch", "none" or
// "never" without a word; the coordinator refuses them on a chain it
// would otherwise audit, and accepts the ends of [0, 1].
func TestNewCoordinatorRefusesCrossCheckFraction(t *testing.T) {
	dir := t.TempDir()
	sealTestChain(t, dir)
	for _, f := range []float64{-0.1, 1.5, 50, math.NaN(), math.Inf(1)} {
		if coord, err := NewCoordinator(dir, CoordinatorOptions{CrossCheck: f}); err == nil {
			coord.Close()
			t.Errorf("CrossCheck %v: coordinator opened, want an error", f)
		} else if !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Errorf("CrossCheck %v: error %q does not name the range", f, err)
		}
	}
	for _, f := range []float64{0, 0.5, 1} {
		coord, err := NewCoordinator(dir, CoordinatorOptions{CrossCheck: f})
		if err != nil {
			t.Fatalf("CrossCheck %v: %v", f, err)
		}
		coord.Close()
	}
}

// TestFleetCrossCheckMismatchRejects replays the malicious-replica
// scenario: one honest worker and one lying worker both audit a
// cross-checked epoch; the liar reports a REJECT the honest audit does
// not reach, so the verdict must be REJECT with forensics naming both
// workers — the fleet cannot vouch for the epoch.
func TestFleetCrossCheckMismatchRejects(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	coord, ts := startFleet(t, dir, CoordinatorOptions{CrossCheck: 1})

	evilLease := leaseFor(t, ts.URL, "evil", nil)
	honestLease := leaseFor(t, ts.URL, "honest", nil)
	if evilLease.Epoch != 1 || honestLease.Epoch != 1 {
		t.Fatalf("both replicas should target epoch 1: %d, %d", evilLease.Epoch, honestLease.Epoch)
	}

	// The liar invents a plausible REJECT: well-formed, with forensics,
	// and not what honest re-execution finds.
	evil := VerdictPost{
		LeaseID:     evilLease.ID,
		Worker:      "evil",
		Epoch:       1,
		ManifestSHA: evilLease.ManifestSHA,
		Reason:      "output mismatch on request r1",
		Forensics:   &verifier.Forensics{Phase: verifier.PhaseReExec, Check: "output", RequestID: "r1"},
	}
	if status, body := postVerdict(t, ts.URL, nil, evil); status != http.StatusOK {
		t.Fatalf("evil post refused early: %d %s", status, body)
	}
	honest := honestVerdict(t, prog, dir, honestLease, "honest", nil)
	if !honest.Accepted {
		t.Fatalf("honest audit of epoch 1 rejected: %s", honest.Reason)
	}
	if status, body := postVerdict(t, ts.URL, nil, honest); status != http.StatusOK {
		t.Fatalf("honest post refused: %d %s", status, body)
	}

	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := coord.Verdicts()
	if len(verdicts) != 1 || verdicts[0].Accepted {
		t.Fatalf("disagreeing replicas must REJECT and break the chain: %+v", verdicts)
	}
	v := verdicts[0]
	if !strings.Contains(v.Reason, "evil") || !strings.Contains(v.Reason, "honest") {
		t.Fatalf("reject reason must name both workers: %q", v.Reason)
	}
	if v.Forensics == nil || v.Forensics.Check != "cross-check" ||
		!strings.Contains(v.Forensics.Detail, "evil") || !strings.Contains(v.Forensics.Detail, "honest") {
		t.Fatalf("forensics must name both workers' verdicts: %+v", v.Forensics)
	}
	st := coord.Stats()
	if st.CrossCheckMismatches != 1 || !st.Broken {
		t.Fatalf("mismatch counters wrong: %+v", st)
	}
	if coord.ChainAccepted() {
		t.Fatal("chain accepted despite a cross-check mismatch")
	}

	// The REJECT is durable: a reopened decision log holds it, so
	// -explain and rehydration see the fleet's verdict.
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := epoch.OpenDecisionLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	d, ok := log.Get(1)
	if !ok || d.Accepted || !strings.Contains(d.Reason, "cross-check disagreement") {
		t.Fatalf("cross-check REJECT not persisted: %+v (ok=%v)", d, ok)
	}
}

// TestFleetLeaseExpiryAndStaleVerdicts drives the reassignment path
// with a fake clock: a lease that times out mid-audit is handed to the
// next worker, the original holder's late verdict is answered 409 and
// ignored, and a verdict for an epoch the worker never held is likewise
// refused — neither becomes a verdict.
func TestFleetLeaseExpiryAndStaleVerdicts(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)

	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, CoordinatorOptions{To: 1, LeaseTimeout: time.Minute, RetryMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var clockMu sync.Mutex
	now := time.Now()
	coord.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	ts := newFleetServer(t, as, coord)

	slow := leaseFor(t, ts.URL, "slow", nil)

	// The slow worker stalls past the lease timeout; the next request
	// reassigns its epoch.
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	fresh := leaseFor(t, ts.URL, "fresh", nil)
	if fresh.Epoch != slow.Epoch {
		t.Fatalf("expired epoch %d not reassigned (fresh got %d)", slow.Epoch, fresh.Epoch)
	}
	if st := coord.Stats(); st.LeasesReassigned != 1 {
		t.Fatalf("LeasesReassigned = %d, want 1", st.LeasesReassigned)
	}

	// The slow worker finally finishes — its posts ride a dead lease and
	// must be ignored, not recorded.
	late := honestVerdict(t, prog, dir, slow, "slow", nil)
	if status, _ := postVerdict(t, ts.URL, nil, late); status != http.StatusConflict {
		t.Fatalf("stale-lease post answered %d, want 409", status)
	}
	// A post for an epoch the worker holds no lease on: same refusal.
	forged := late
	forged.LeaseID = "0123456789abcdef0123456789abcdef"
	forged.Worker = "forger"
	if status, _ := postVerdict(t, ts.URL, nil, forged); status != http.StatusConflict {
		t.Fatalf("unheld-epoch verdict accepted")
	}
	if st := coord.Stats(); st.StaleVerdicts != 2 || st.EpochsDecided != 0 {
		t.Fatalf("stale verdicts must never decide an epoch: %+v", st)
	}

	// The live lease still decides the epoch.
	if status, body := postVerdict(t, ts.URL, nil, honestVerdict(t, prog, dir, fresh, "fresh", nil)); status != http.StatusOK {
		t.Fatalf("live verdict refused: %d %s", status, body)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := coord.Verdicts()
	if len(verdicts) != 1 || !verdicts[0].Accepted {
		t.Fatalf("epoch 1 should hold one ACCEPT: %+v", verdicts)
	}
}

// stallObserver holds every re-execution it observes for a while.
type stallObserver struct{ stall time.Duration }

func (o stallObserver) PhaseStart(phase string, _ int) {
	if phase == verifier.PhaseReExec {
		time.Sleep(o.stall)
	}
}
func (stallObserver) PhaseEnd(string, time.Duration)      {}
func (stallObserver) GroupReexecuted(string, uint64, int) {}
func (stallObserver) OpsReplayed(int)                     {}
func (stallObserver) Verdict(bool, string)                {}

// TestLeaseRenewedWhileAuditing: a worker renews its lease every third
// of the lease timeout while it audits, so an audit that stalls in its
// re-execution for several timeouts keeps its lease: every epoch is
// decided by its first lease, none is reassigned or abandoned.
func TestLeaseRenewedWhileAuditing(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	const timeout = 300 * time.Millisecond
	coord, ts := startFleet(t, dir, CoordinatorOptions{To: 2, LeaseTimeout: timeout})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	st, err := RunWorker(ctx, prog, WorkerOptions{
		Coordinator: ts.URL,
		Name:        "slow",
		InitPoll:    10 * time.Millisecond,
		Verify:      verifier.Options{Observer: stallObserver{3 * timeout}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	cs := coord.Stats()
	if cs.LeasesReassigned != 0 || st.Abandoned != 0 || cs.StaleVerdicts != 0 {
		t.Fatalf("a renewed lease lapsed: %d reassigned, %d abandoned, %d stale verdicts",
			cs.LeasesReassigned, st.Abandoned, cs.StaleVerdicts)
	}
	if vs := coord.Verdicts(); len(vs) != 2 || !coord.ChainAccepted() {
		t.Fatalf("want two ACCEPTs, got %+v", vs)
	}
}

// TestAbandonedLeaseIsHandedBack: the artifact server answers 503 to
// every chunk request until the worker's first lease is abandoned (its
// artifacts unavailable after fetchRetries attempts). The worker names
// that lease in its next lease request, so the coordinator ends it and
// leases the epoch again at once: the chain is decided with the
// coordinator's clock never moved, with no lease timed out.
func TestAbandonedLeaseIsHandedBack(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	_, want := referenceAudit(t, prog, dir)
	clock := &fakeClock{now: time.Now()}
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, CoordinatorOptions{LeaseTimeout: time.Minute, RetryMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.now = clock.Now
	fleet := newFleetServer(t, as, coord)
	var down atomic.Bool
	down.Store(true)
	var leases atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == Prefix+"/lease" && leases.Add(1) == 2:
			down.Store(false) // the worker asks again: it abandoned the first
		case strings.HasPrefix(r.URL.Path, Prefix+"/chunk/") && down.Load():
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		fleet.Config.Handler.ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stats, err := RunWorker(ctx, prog, WorkerOptions{Coordinator: ts.URL, Name: "w", InitPoll: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("worker: %v (an abandoned lease must not hold its epoch until the lease timeout)", err)
	}
	if stats.Abandoned != 1 {
		t.Fatalf("%d leases abandoned, want the first", stats.Abandoned)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := coord.Stats(); st.LeasesReassigned != 0 {
		t.Fatalf("%d leases timed out under a clock that never moved", st.LeasesReassigned)
	}
	if !coord.ChainAccepted() || coord.ChainSHA() != want {
		t.Fatalf("ledger ends on %.12s (accepted %v), want the reference %.12s", coord.ChainSHA(), coord.ChainAccepted(), want)
	}
}

// TestFleetRestartResumesFromDecisions bounds a first fleet run to two
// epochs, restarts the coordinator, and lets the second run pick up the
// hand-off from the stored decisions and checkpoint. The combined
// ledger must end on the same chain digest as one uninterrupted
// single-process audit.
func TestFleetRestartResumesFromDecisions(t *testing.T) {
	master := t.TempDir()
	prog := sealTestChain(t, master)
	want := normalize(t, singleAudit(t, prog, copyChain(t, master)))
	if len(want) < 3 {
		t.Fatalf("chain too short to exercise resume: %d epochs", len(want))
	}

	dir := copyChain(t, master)
	coord1, ts1 := startFleet(t, dir, CoordinatorOptions{To: 2})
	runWorkers(t, prog, ts1.URL, 1, nil)
	if err := coord1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(coord1.Verdicts()); got != 2 {
		t.Fatalf("bounded run decided %d epochs, want 2", got)
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}

	coord2, ts2 := startFleet(t, dir, CoordinatorOptions{})
	// The decided prefix is rehydrated before any worker connects.
	if got := len(coord2.Verdicts()); got != 2 {
		t.Fatalf("restart rehydrated %d verdicts, want 2", got)
	}
	runWorkers(t, prog, ts2.URL, 2, nil)
	if err := coord2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireSameLedger(t, "resumed", normalize(t, coord2.Verdicts()), want)
	if !coord2.ChainAccepted() {
		t.Fatal("resumed chain rejected")
	}
}

// TestFleetRefusesBadSignatures locks the fleet behind a shared key:
// unsigned and mis-keyed posts are refused with 403 and surface only as
// a metric; a worker with the wrong key dies fatally; the properly
// keyed fleet then audits the chain to ACCEPT.
func TestFleetRefusesBadSignatures(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	key := []byte("fleet-secret")
	coord, ts := startFleet(t, dir, CoordinatorOptions{Key: key})

	// Unsigned lease request.
	if status, _ := postJSON(t, ts.URL+Prefix+"/lease", nil, LeaseRequest{Worker: "anon"}); status != http.StatusForbidden {
		t.Fatalf("unsigned lease request answered %d, want 403", status)
	}
	// Mis-keyed verdict post: refused before any lease validation runs.
	post := VerdictPost{LeaseID: "deadbeef", Worker: "mallory", Epoch: 1, Accepted: true}
	if status, _ := postVerdict(t, ts.URL, []byte("wrong-key"), post); status != http.StatusForbidden {
		t.Fatalf("mis-signed verdict answered %d, want 403", status)
	}
	if st := coord.Stats(); st.BadSignaturePosts != 2 || st.EpochsDecided != 0 {
		t.Fatalf("bad posts must count and never decide: %+v", st)
	}

	// A whole worker on the wrong key fails fast instead of spinning.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := RunWorker(ctx, prog, WorkerOptions{Coordinator: ts.URL, Key: []byte("wrong-key")}); err == nil ||
		!strings.Contains(err.Error(), "refused") {
		t.Fatalf("wrong-keyed worker should die on the coordinator's refusal, got %v", err)
	}

	runWorkers(t, prog, ts.URL, 2, key)
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !coord.ChainAccepted() {
		t.Fatalf("keyed fleet audit rejected: %+v", coord.Verdicts())
	}
	for _, v := range coord.Verdicts() {
		if !v.Accepted {
			t.Fatalf("epoch %d rejected: %s", v.Epoch, v.Reason)
		}
	}
}

// TestFleetWarmWorkerFetchesLess pins the dedup story on the wire: a
// worker re-visiting an epoch whose chunks its cache already holds
// (here, the second replica of every 100%-cross-checked epoch) fetches
// nothing, while its cold first visit paid the full logical size.
func TestFleetWarmWorkerFetchesLess(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	coord, ts := startFleet(t, dir, CoordinatorOptions{CrossCheck: 1})

	var mu sync.Mutex
	visits := make(map[int64][]EpochReport)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, err := RunWorker(ctx, prog, WorkerOptions{
		Coordinator: ts.URL,
		Name:        "warm",
		InitPoll:    10 * time.Millisecond,
		OnEpoch: func(r EpochReport) {
			mu.Lock()
			visits[r.Epoch] = append(visits[r.Epoch], r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !coord.ChainAccepted() {
		t.Fatalf("chain rejected: %+v", coord.Verdicts())
	}
	if len(visits) < 2 {
		t.Fatalf("worker visited %d epochs, want >= 2", len(visits))
	}
	for n, rs := range visits {
		if len(rs) != 2 {
			t.Fatalf("epoch %d audited %d times, want 2 (sole worker, k=2)", n, len(rs))
		}
		cold, second := rs[0], rs[1]
		if cold.FetchedBytes == 0 || cold.LogicalBytes == 0 {
			t.Fatalf("epoch %d: cold visit should fetch bytes: %+v", n, cold)
		}
		if second.FetchedBytes >= cold.FetchedBytes {
			t.Fatalf("epoch %d: warm visit fetched %d bytes, cold fetched %d — cache contributed nothing",
				n, second.FetchedBytes, cold.FetchedBytes)
		}
	}
	st := coord.Stats()
	if st.CacheHitBytes == 0 {
		t.Fatalf("coordinator saw no cache hits: %+v", st)
	}
	if st.FetchedBytes == 0 {
		t.Fatalf("coordinator saw no fetched bytes: %+v", st)
	}
}
