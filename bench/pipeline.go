package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orochi/internal/cas"
	"orochi/internal/epoch"
	"orochi/internal/fleet"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
)

// round is one pass of the pipeline over a freshly generated workload:
// set-up, serve, seal drain, chain audit from disk, fleet audit over
// loopback HTTP. A run is several rounds; every reported metric is the
// median of the rounds' values.
type round struct {
	requests int
	epochs   int

	setup   time.Duration // generate + compile + schema + seed + StartManager
	serve   time.Duration // first Handle call to last return
	durable time.Duration // first Handle call to mgr.Close() returning
	audit   time.Duration // NewAuditor + DrainSealed over the on-disk chain
	fleet   time.Duration // first worker start to coord.Wait returning

	storedBytes int64 // chunk store at rest + manifests
	wireBytes   int64 // request + response bodies, all fleet workers

	latencies []float64 // one per Handle call, in microseconds, ascending

	// Correctness gate: operations attempted and failed, with the
	// reason for each kind of failure.
	attempted, failed int
	reasons           []string

	layers map[string]float64 // per-layer metrics; traced rounds only
}

// epochEvents is a quarter of the manager's default cut threshold (512
// requests per epoch, not 2048). Rounds are a sixth to a tenth of the
// size the workloads were first probed at, to fit the run-time cap;
// cutting epochs smaller with them keeps a round's chain several epochs
// long, so sealing overlaps serving and the fleet has epochs to share
// out, as on a production-sized chain.
const epochEvents = 1024

func (r *round) check(ok bool, reason string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.reasons = append(r.reasons, fmt.Sprintf(reason, args...))
	}
}

// runRound runs one round in dir, which it creates and the caller
// removes. The tamper control runs only when tamper is set; it is a
// gate, not a measurement, so once per run is enough.
func runRound(ctx context.Context, wl *benchWorkload, seed int64, dir string, clients int, tr *tracer, tamper bool) (*round, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	chainDir := filepath.Join(dir, "chain")
	r := &round{}
	root := tr.begin("bench.round", "", noParent)

	// Set-up.
	setup := tr.begin("bench.setup", "", root.idx)
	sp := tr.begin("workload.generate", "", setup.idx)
	w := wl.gen(seed)
	tr.end(sp)
	sp = tr.begin("lang.compile", "", setup.idx)
	prog := w.App.Compile()
	tr.end(sp)
	srv := server.New(prog, server.Options{Record: true})
	sp = tr.begin("sqlmini.schema", "", setup.idx)
	err := srv.Setup(w.App.Schema)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sqlmini.seed", "", setup.idx)
	err = srv.Setup(w.Seed)
	seedTime := tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("epoch.start_manager", "", setup.idx)
	mgr, err := epoch.StartManager(chainDir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: epochEvents})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.setup = tr.end(setup)
	r.requests = len(w.Requests)

	// Serve, closed loop, then drain the seal pipeline.
	durable := tr.begin("bench.durable", "", root.idx)
	serve := tr.begin("bench.serve", "", durable.idx)
	lats, http500 := serveClosedLoop(tr, serve.idx, srv, w.Requests, clients)
	r.serve = tr.end(serve)
	r.latencies = sortedMicros(lats)
	sp = tr.begin("epoch.seal_drain", "", durable.idx)
	err = mgr.Close()
	drain := tr.end(sp)
	r.durable = tr.end(durable)
	if err != nil {
		return nil, fmt.Errorf("seal drain: %w", err)
	}
	r.attempted += r.requests
	if http500 > 0 {
		r.failed += http500
		r.reasons = append(r.reasons, fmt.Sprintf("%d of %d responses are HTTP 500 renderings", http500, r.requests))
	}

	sealed, err := epoch.ListSealed(chainDir)
	if err != nil {
		return nil, err
	}
	r.epochs = len(sealed)
	if r.storedBytes, err = chainBytesAtRest(chainDir, sealed); err != nil {
		return nil, err
	}
	// The auditor and the coordinator both write their decisions into
	// the directory they audit, so each gets its own copy of the chain.
	fleetDir := filepath.Join(dir, "fleet-chain")
	if err := os.CopyFS(fleetDir, os.DirFS(chainDir)); err != nil {
		return nil, err
	}

	// Chain audit from disk.
	sp = tr.begin("bench.chain_audit", "", root.idx)
	auditor := epoch.NewAuditor(prog, chainDir, epoch.AuditorOptions{Verify: verifier.Options{Workers: clients}})
	_, err = auditor.DrainSealed(ctx, 200*time.Millisecond, nil)
	r.audit = tr.end(sp)
	if log := auditor.Decisions(); log != nil {
		log.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("chain audit: %w", err)
	}
	verdicts := auditor.Verdicts()
	r.check(len(verdicts) == len(sealed), "chain audit reached %d of %d sealed epochs", len(verdicts), len(sealed))
	localSHA := ""
	for _, v := range verdicts {
		r.check(v.Accepted, "epoch %d: local verdict REJECT: %s", v.Epoch, v.Reason)
		localSHA = v.ChainSHA
	}

	// Fleet audit of the copy.
	fl, err := runFleet(ctx, tr, root.idx, prog, fleetDir, clients)
	if err != nil {
		return nil, fmt.Errorf("fleet audit: %w", err)
	}
	r.fleet = fl.wall
	_, r.wireBytes, _ = fl.transport.totals()
	r.check(fl.chainSHA == localSHA, "fleet chain digest %.12s differs from the local auditor's %.12s", fl.chainSHA, localSHA)

	if tamper {
		rejected, err := tamperRejected(ctx, prog, sealed[0])
		if err != nil {
			return nil, fmt.Errorf("tamper control: %w", err)
		}
		r.check(rejected, "tamper control: epoch %d with one flipped response byte was not rejected", sealed[0].Number)
	}

	if tr.on && r.failed == 0 {
		r.layers, err = probeLayers(ctx, tr, root.idx, w, prog, chainDir, sealed)
		if err != nil {
			return nil, err
		}
		addPipelineLayers(r, fl, len(w.Seed), seedTime, drain)
	}
	tr.end(root)
	return r, nil
}

// serveClosedLoop drives reqs through srv.Handle from `clients`
// goroutines; each sends its next request only after the previous one
// returned. Every epochEvents/2 requests the clients meet at a barrier,
// so the trace is balanced exactly when the manager's cut threshold is
// reached and every round's chain has the same epoch boundaries; left
// alone, two saturated clients are both idle only by chance and epochs
// come out anywhere between one and three thresholds long. It returns
// every call's latency and how many bodies were canonical HTTP 500
// renderings.
func serveClosedLoop(tr *tracer, parent int, srv *server.Server, reqs []trace.Input, clients int) ([]time.Duration, int) {
	lats := make([][]time.Duration, clients)
	fails := make([]int, clients)
	for lo := 0; lo < len(reqs); lo += epochEvents / 2 {
		hi := min(lo+epochEvents/2, len(reqs))
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					sp := tr.begin("server.handle", "r"+strconv.Itoa(i), parent)
					_, body := srv.Handle(reqs[i])
					lats[c] = append(lats[c], tr.end(sp))
					if strings.HasPrefix(body, "HTTP 500") {
						fails[c]++
					}
				}
			}()
		}
		wg.Wait()
	}
	all := make([]time.Duration, 0, len(reqs))
	failed := 0
	for c := range lats {
		all = append(all, lats[c]...)
		failed += fails[c]
	}
	return all, failed
}

// chainBytesAtRest is what the chain costs to keep: the chunk store's
// stored (deduplicated, compressed) bytes plus every manifest file.
func chainBytesAtRest(chainDir string, sealed []*epoch.Sealed) (int64, error) {
	store, err := epoch.OpenChainStore(chainDir)
	if err != nil {
		return 0, err
	}
	_, total, err := store.Stats()
	if err != nil {
		return 0, err
	}
	for _, s := range sealed {
		fi, err := os.Stat(filepath.Join(s.Dir, epoch.ManifestName))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// fleetRun is the outcome of one fleet audit.
type fleetRun struct {
	wall      time.Duration
	chainSHA  string
	transport *countingTransport
	abandoned int
}

// runFleet audits the chain in dir through the fleet stack over
// loopback HTTP: an artifact server and a coordinator on one listener,
// and `workers` cold RunWorkers (empty in-memory chunk caches, one
// verifier worker each) whose traffic all goes through one counting
// transport. Lease and init polls are 10 ms and 5 ms, as orochi-bench
// -fig fleet sets them, so the wall measures transfer and audit rather
// than where in a 150 ms poll period a hand-off happened to land.
func runFleet(ctx context.Context, tr *tracer, parent int, prog *lang.Program, dir string, workers int) (*fleetRun, error) {
	as, err := fleet.NewArtifactServer(dir)
	if err != nil {
		return nil, err
	}
	coord, err := fleet.NewCoordinator(dir, fleet.CoordinatorOptions{RetryMS: 10})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	mux := http.NewServeMux()
	mux.Handle(fleet.Prefix+"/", as.Handler())
	ch := coord.Handler()
	mux.Handle("POST "+fleet.Prefix+"/lease", ch)
	mux.Handle("POST "+fleet.Prefix+"/verdict", ch)
	mux.Handle("GET "+fleet.Prefix+"/epoch/{n}/init", ch)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns once hs.Close is called below
	}()
	defer func() {
		hs.Close()
		<-served
	}()

	sp := tr.begin("bench.fleet_audit", "", parent)
	base := &http.Transport{MaxIdleConnsPerHost: 2 * workers}
	defer base.CloseIdleConnections()
	ct := newCountingTransport(base, tr, sp.idx)
	client := &http.Client{Transport: ct, Timeout: 60 * time.Second}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stats := make([]fleet.WorkerStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = fleet.RunWorker(wctx, prog, fleet.WorkerOptions{
				Coordinator: "http://" + ln.Addr().String(),
				Name:        "bench-w" + strconv.Itoa(i),
				Hot:         cas.NewMemory(),
				Client:      client,
				Verify:      verifier.Options{Workers: 1},
				InitPoll:    5 * time.Millisecond,
			})
			if errs[i] != nil {
				cancel() // a dead worker must not leave coord.Wait hanging
			}
		}()
	}
	werr := coord.Wait(wctx)
	wall := tr.end(sp)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	fl := &fleetRun{wall: wall, chainSHA: coord.ChainSHA(), transport: ct}
	for _, st := range stats {
		fl.abandoned += st.Abandoned
	}
	return fl, nil
}

// tamperRejected is the gate's control: it loads a sealed epoch, flips
// one bit in one recorded response, and reports whether the verifier
// rejects the result. An audit that accepts it would accept anything.
func tamperRejected(ctx context.Context, prog *lang.Program, s *epoch.Sealed) (bool, error) {
	l, err := epoch.Load(s)
	if err != nil {
		return false, err
	}
	if !flipResponseBit(l.Trace) {
		return false, errors.New("no non-empty response to tamper with")
	}
	return auditRejects(ctx, prog, l)
}

func auditRejects(ctx context.Context, prog *lang.Program, l *epoch.Loaded) (bool, error) {
	res, err := verifier.AuditContext(ctx, prog, l.Trace, l.Reports, l.Init, verifier.Options{})
	if err != nil {
		return false, err
	}
	return !res.Accepted, nil
}

// flipResponseBit flips the low bit of the middle byte of the middle
// non-empty response in tr.
func flipResponseBit(tr *trace.Trace) bool {
	var bodies []int
	for i, ev := range tr.Events {
		if ev.Kind == trace.Response && ev.Body != "" {
			bodies = append(bodies, i)
		}
	}
	if len(bodies) == 0 {
		return false
	}
	ev := &tr.Events[bodies[len(bodies)/2]]
	b := []byte(ev.Body)
	b[len(b)/2] ^= 1
	ev.Body = string(b)
	return true
}
