// Command orochi-serve fronts one of the sample applications with a real
// net/http server, playing the online phase of OROCHI: the embedded
// collector records the trace at the HTTP boundary (the paper's
// middlebox) and the recording runtime produces reports. The epoch
// pipeline cuts them into epochs every -epoch-events events (at
// balanced boundaries) and seals each into the chain directory
// -epoch-dir, and a background auditor verifies sealed epochs while
// serving continues. On shutdown (SIGINT/SIGTERM) in-flight requests
// drain and the final epoch is sealed; cmd/orochi-audit -epochs <dir>
// verifies the chain offline.
//
//	orochi-serve -app wiki -listen :8090 -epoch-dir ./epochs
//
// Application scripts map to URL paths: GET /view?page=X runs the "view"
// script with $_GET['page']='X'; POST bodies become $_POST; cookies
// become $_COOKIE. Control endpoints under /-/ exist outside the audited
// surface: /-/ shows the serving counters, the live pipeline state and
// the per-epoch verdict ledger, and /-/metrics exports them.
//
// Optionally, -drive N self-drives the server with N workload requests
// through HTTP (a built-in load generator), then shuts down — the
// zero-setup path to a sealed, audited chain.
//
//	orochi-serve -app wiki -drive 2000 -epoch-events 500 -epoch-dir ./epochs
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"orochi/internal/apps"
	"orochi/internal/console"
	"orochi/internal/epoch"
	"orochi/internal/fleet"
	"orochi/internal/httpfront"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

func main() {
	appName := flag.String("app", "wiki", "application to serve (wiki, forum, hotcrp)")
	listen := flag.String("listen", ":8090", "listen address")
	drive := flag.Int("drive", 0, "self-drive N workload requests over HTTP, then shut down")
	conc := flag.Int("concurrency", 8, "self-drive concurrency")
	epochDir := flag.String("epoch-dir", "epochs", "chain directory the epoch pipeline seals into (must hold no chain yet)")
	epochEvents := flag.Int("epoch-events", 4096, "seal an epoch after this many trace events")
	epochAudit := flag.Bool("epoch-audit", true, "run the background auditor over sealed epochs")
	scrubEvery := flag.Duration("scrub-interval", 0, "run the retrievability self-audit over the epoch dir at this interval (0 = off); failures become REJECT decisions")
	auditWorkers := flag.Int("audit-workers", 0, "concurrent re-execution workers in the background auditor (0 = half the CPUs, to leave room for serving; 1 = sequential)")
	faultRate := flag.Float64("fault-rate", 0, "inject faulting requests (unknown script, undefined function, bad SQL) into the workload at this rate; the audit must still ACCEPT")
	tamperReq := flag.Int64("tamper-request", 0, "misbehaving-executor demo: corrupt the Nth audited request's response between the executor and the collector — the collector records (and the client sees) the tampered bytes, and the audit must REJECT naming that request")
	flag.Parse()

	app := apps.ByName(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "orochi-serve: unknown app %q\n", *appName)
		os.Exit(2)
	}
	var w *workload.Workload
	switch *appName {
	case "wiki":
		p := workload.DefaultWikiParams().Scale(20)
		w = workload.Wiki(p)
	case "forum":
		p := workload.DefaultForumParams().Scale(20)
		w = workload.Forum(p)
	case "hotcrp":
		p := workload.DefaultHotCRPParams().Scale(20)
		w = workload.HotCRP(p)
	}
	if *faultRate > 0 {
		// Faulted requests are first-class auditable outcomes: the mix
		// produces canonical 500s that the audit re-executes and accepts.
		w = workload.WithErrors(w, workload.ErrorMixParams{Rate: *faultRate, Seed: 42})
	}

	prog := w.App.Compile()
	srv := server.New(prog, server.Options{Record: true})
	exitOn(srv.Setup(w.App.Schema))
	exitOn(srv.Setup(w.Seed))

	mgr, err := epoch.StartManager(*epochDir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: *epochEvents})
	exitOn(err)
	var auditor *epoch.Auditor
	var scrubber *epoch.Scrubber
	var stopAudit, stopScrub context.CancelFunc
	var auditDone chan struct{}
	if *epochAudit {
		// The background auditor shares the machine with live
		// serving: default its worker pool to half the CPUs so epoch
		// audits don't starve request handling.
		vw := *auditWorkers
		if vw <= 0 {
			vw = max(1, runtime.GOMAXPROCS(0)/2)
		}
		auditor = epoch.NewAuditor(prog, *epochDir, epoch.AuditorOptions{
			Notify:      mgr.Notify(),
			Checkpoints: true,
			Verify:      verifier.Options{Workers: vw},
		})
		var auditCtx context.Context
		auditCtx, stopAudit = context.WithCancel(context.Background())
		auditDone = make(chan struct{})
		go func() {
			defer close(auditDone)
			// A cancelled Run is the expected shutdown path: the epoch
			// it was verifying publishes no verdict and is re-audited by
			// the catch-up drain below.
			if err := auditor.Run(auditCtx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "orochi-serve: auditor:", err)
			}
		}()
	}
	if *scrubEvery > 0 {
		// The scrubber must share the auditor's decision log — two
		// writers on one decisions.jsonl would corrupt the event
		// stream. Without a background auditor it opens the log itself.
		var dlog *epoch.DecisionLog
		if auditor != nil {
			dlog = auditor.Decisions()
		} else {
			dlog, err = epoch.OpenDecisionLog(*epochDir)
			exitOn(err)
		}
		scrubber = epoch.NewScrubber(*epochDir, dlog, epoch.ScrubberOptions{Interval: *scrubEvery})
		var scrubCtx context.Context
		scrubCtx, stopScrub = context.WithCancel(context.Background())
		go scrubber.Run(scrubCtx)
	}

	mux := http.NewServeMux()
	// The operations console serves the control surface under /-/: an
	// overview page (/-/), the epoch timeline and verdict ledger (the
	// JSON API), and Prometheus metrics (/-/metrics). The chain's
	// manifests and chunks are also served to fleet audit workers under
	// /-/fleet/ (everything there is pinned by digest, so serving it is
	// read-only and trust-free).
	artifacts, err := fleet.NewArtifactServer(*epochDir)
	exitOn(err)
	mux.Handle(fleet.Prefix+"/", artifacts.Handler())
	con := console.New(console.Options{Server: srv, Manager: mgr, Auditor: auditor, Scrubber: scrubber,
		FleetArtifacts: artifacts})
	mux.Handle(httpfront.ControlPrefix, con.Handler())
	// The audited surface is the shared HTTP front door: the embedded
	// collector as middleware in front of the executor
	// (internal/httpfront) — the same library path the tests and
	// examples use. Control endpoints under /-/ are registered on the
	// mux above it and never enter the trace. With -tamper-request a
	// corrupting middleware sits between the collector and the executor,
	// modelling a misbehaving serving stack: the trace (and the client)
	// get the tampered bytes, and the audit must REJECT with forensics
	// naming the request.
	front := httpfront.Handler(srv)
	if *tamperReq > 0 {
		front = httpfront.Collector(srv.Collector, tamper(*tamperReq, httpfront.Exec(srv)))
	}
	mux.Handle("/", front)

	httpSrv := &http.Server{Addr: *listen, Handler: mux, ReadHeaderTimeout: 10 * time.Second}

	// Graceful shutdown — triggered by the driver finishing or by
	// SIGINT/SIGTERM — drains in-flight requests before main proceeds,
	// so the final epoch is cut at a balanced point. httpSrv.Shutdown
	// waits for open HTTP connections; the InFlight poll below is the
	// belt-and-suspenders check that the executor itself is idle before
	// the final epoch is sealed.
	drained := make(chan struct{}, 2)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		for srv.InFlight() > 0 && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		drained <- struct{}{}
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		shutdown()
	}()

	if *drive > 0 {
		go func() {
			if err := driveWorkload(*listen, w, *drive, *conc); err != nil {
				fmt.Fprintln(os.Stderr, "orochi-serve: drive:", err)
			}
			shutdown()
		}()
	}

	fmt.Printf("serving %s on %s (epoch pipeline -> %s, sealing every %d events; GET /-/ for status)\n",
		*appName, *listen, *epochDir, *epochEvents)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		exitOn(err)
	}
	<-drained

	// In-flight requests have drained, so the final epoch ends at a
	// balanced point: seal it and let the auditor catch up with
	// everything that sealed.
	if stopScrub != nil {
		stopScrub()
	}
	exitOn(mgr.Close())
	if auditor == nil {
		fmt.Printf("sealed %d epochs under %s (audit with: orochi-audit -app %s -epochs %s)\n",
			len(mgr.Status().Sealed), *epochDir, *appName, *epochDir)
		return
	}
	// Stop the background loop before the catch-up pass so two
	// RunOnce calls never interleave.
	stopAudit()
	<-auditDone
	_, err = auditor.DrainSealed(context.Background(), 200*time.Millisecond, func(err error) {
		fmt.Fprintln(os.Stderr, "orochi-serve:", err)
	})
	exitOn(err)
	printLedger(os.Stdout, mgr, auditor)
	if !auditor.ChainAccepted() {
		os.Exit(1)
	}
}

// tamper returns middleware for between the collector and the executor
// that corrupts the body of the nth audited request (1-based, counted in
// arrival order at this middleware). Everything downstream of the
// collector is the untrusted executor in the paper's model; this is the
// one-flag way to demonstrate that the audit catches a serving stack
// that returns bytes the program never produced. The corrupted response
// is what the collector records and the client receives, so reports and
// trace disagree and the audit REJECTs with forensics naming the rid.
func tamper(nth int64, next http.Handler) http.Handler {
	var count atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, _, ok := httpfront.RecordedFrom(r.Context())
		if !ok || count.Add(1) != nth {
			next.ServeHTTP(w, r)
			return
		}
		buf := &bufferedResponse{ResponseWriter: w}
		next.ServeHTTP(buf, r)
		body := buf.buf.Bytes()
		if len(body) > 0 {
			body[0] ^= 0x20 // flip one bit of the first byte
		} else {
			body = []byte("tampered")
		}
		fmt.Fprintf(os.Stderr, "orochi-serve: tampering with response of request %s\n", rid)
		if buf.code != 0 && buf.code != http.StatusOK {
			w.WriteHeader(buf.code)
		}
		_, _ = w.Write(body)
	})
}

// bufferedResponse captures a downstream handler's body so tamper can
// rewrite it before it reaches the collector's capture.
type bufferedResponse struct {
	http.ResponseWriter
	buf  bytes.Buffer
	code int
}

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.buf.Write(p) }

// printLedger prints the final audit ledger at shutdown.
func printLedger(wr io.Writer, mgr *epoch.Manager, auditor *epoch.Auditor) {
	st := mgr.Status()
	verdicts := auditor.Verdicts()
	fmt.Fprintf(wr, "sealed %d epochs; audited %d\n", len(st.Sealed), len(verdicts))
	for _, v := range verdicts {
		if v.Accepted {
			fmt.Fprintf(wr, "  epoch %d: ACCEPT — %d requests in %v (chain %.12s)\n",
				v.Epoch, v.Requests, v.Stats.Total, v.ChainSHA)
		} else {
			fmt.Fprintf(wr, "  epoch %d: REJECT — %s (chain %.12s)\n", v.Epoch, v.Reason, v.ChainSHA)
		}
	}
	if auditor.ChainAccepted() {
		fmt.Fprintln(wr, "chain verdict: ACCEPT")
	} else {
		fmt.Fprintln(wr, "chain verdict: REJECT")
	}
}

// driveWorkload replays workload requests through the HTTP front end,
// cycling through the workload when n exceeds the generated pool.
func driveWorkload(listen string, w *workload.Workload, n, conc int) error {
	base := "http://127.0.0.1" + listen
	if !strings.HasPrefix(listen, ":") {
		base = "http://" + listen
	}
	// Wait for the listener. The probe client carries its own timeout —
	// http.Get would hang forever on a wedged listener — and the probe
	// body must be drained and closed, or every failed poll leaks a
	// connection.
	probe := &http.Client{Timeout: 2 * time.Second}
	for i := 0; i < 50; i++ {
		resp, err := probe.Get(base + "/-/metrics")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(w.Requests) == 0 {
		return fmt.Errorf("empty workload")
	}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		in := w.Requests[i%len(w.Requests)]
		wg.Add(1)
		sem <- struct{}{}
		go func(in trace.Input) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := sendOne(base, in); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(in)
	}
	wg.Wait()
	return firstErr
}

// driveClient sends the driver's audited requests; like every client in
// the repo it carries an explicit timeout instead of DefaultClient's
// wait-forever.
var driveClient = &http.Client{Timeout: 60 * time.Second}

func sendOne(base string, in trace.Input) error {
	req, err := httpfront.NewRequest(base, in)
	if err != nil {
		return err
	}
	resp, err := driveClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "orochi-serve:", err)
		os.Exit(2)
	}
}
