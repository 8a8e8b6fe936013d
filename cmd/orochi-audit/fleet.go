package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"orochi/internal/cas"
	"orochi/internal/console"
	"orochi/internal/fleet"
	"orochi/internal/lang"
	"orochi/internal/verifier"
)

// fleetListen binds addr and serves handler with the same explicit
// timeouts every listener in the repo carries, until ctx is cancelled.
// It returns the bound address (addr may carry port 0 in tests).
func fleetListen(ctx context.Context, addr string, handler http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ln.Addr().String(), stop, nil
}

// serveArtifactsCmd runs a standalone artifact server over an epoch
// chain: manifests and chunks for fleet workers, plus /-/metrics. Read
// only — it takes no chain lock, so it can serve a chain a live
// orochi-serve is still sealing into.
func serveArtifactsCmd(ctx context.Context, dir, addr string) {
	as, err := fleet.NewArtifactServer(dir)
	exitOn(err)
	con := console.New(console.Options{FleetArtifacts: as})
	mux := http.NewServeMux()
	mux.Handle("/-/", con.Handler())
	mux.Handle(fleet.Prefix+"/", as.Handler())
	bound, stop, err := fleetListen(ctx, addr, mux)
	exitOn(err)
	defer stop()
	fmt.Printf("serving artifacts for %s on %s (Ctrl-C to stop)\n", dir, bound)
	<-ctx.Done()
	st := as.Stats()
	fmt.Printf("served %d chunks (%d bytes)\n", st.ChunksServed, st.BytesServed)
}

// coordinateCmd runs a fleet audit of an epoch chain: artifact server,
// coordinator, and console on one listener. It blocks until every
// sealed epoch is decided (or the chain breaks), then prints the ledger
// and exits as the single-process auditor does (printLedger).
func coordinateCmd(ctx context.Context, dir, addr string, opts fleet.CoordinatorOptions) {
	lock := lockChainOrExit(dir, "-coordinate")
	defer lock.Unlock()
	as, err := fleet.NewArtifactServer(dir)
	exitOn(err)
	coord, err := fleet.NewCoordinator(dir, opts)
	exitOn(err)
	defer coord.Close()
	con := console.New(console.Options{FleetArtifacts: as, FleetCoordinator: coord})
	mux := http.NewServeMux()
	mux.Handle("/-/", con.Handler())
	mux.Handle(fleet.Prefix+"/", as.Handler())
	// The coordinator's patterns are more specific than the artifact
	// subtree, so both mount under the same prefix.
	coordHandler := coord.Handler()
	mux.Handle("POST "+fleet.Prefix+"/lease", coordHandler)
	mux.Handle("POST "+fleet.Prefix+"/verdict", coordHandler)
	mux.Handle("GET "+fleet.Prefix+"/epoch/{n}/init", coordHandler)
	bound, stop, err := fleetListen(ctx, addr, mux)
	exitOn(err)
	defer stop()
	fmt.Printf("coordinating fleet audit of %s on %s\n", dir, bound)

	err = coord.Wait(ctx)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "orochi-audit: fleet audit interrupted; completed verdicts are stored, rerun to resume")
		os.Exit(130)
	}
	exitOn(err)
	for _, warn := range coord.Warnings() {
		fmt.Fprintln(os.Stderr, "orochi-audit:", warn)
	}
	st := coord.Stats()
	fmt.Fprintf(os.Stderr, "orochi-audit: fleet: at most %d epoch(s) in flight past the ledger, %d verdict(s) discarded for an initial-state mismatch, %d epoch state(s) derived in %.3fs\n",
		st.MaxEpochsInFlight, st.InitMismatches, st.StatesDerived, st.StateDeriveTime.Seconds())
	// Group statistics are the workers' to print (-worker -stats).
	printLedger(dir, coord.Ledger(), opts.To, false)
}

// workerCmd runs a fleet audit worker against a coordinator until the
// chain is fully decided.
func workerCmd(ctx context.Context, prog *lang.Program, opts fleet.WorkerOptions, cacheDir string) {
	if cacheDir != "" {
		hot, err := cas.OpenFS(cacheDir)
		exitOn(err)
		opts.Hot = hot
	}
	opts.OnEpoch = func(r fleet.EpochReport) {
		verdict := "ACCEPT"
		if !r.Accepted {
			verdict = fmt.Sprintf("REJECT — %s", r.Reason)
		}
		tag := ""
		if r.CrossCheck {
			tag = " [cross-check]"
		}
		fmt.Printf("epoch %d: %s%s (fetched %d of %d bytes, %d on the wire)\n",
			r.Epoch, verdict, tag, r.FetchedBytes, r.LogicalBytes, r.WireBytes)
	}
	stats, err := fleet.RunWorker(ctx, prog, opts)
	if errors.Is(err, context.Canceled) || errors.Is(err, verifier.ErrAuditCanceled) {
		fmt.Fprintln(os.Stderr, "orochi-audit: worker interrupted")
		os.Exit(130)
	}
	exitOn(err)
	fmt.Printf("worker %s done: %d epochs audited (%d accepted, %d rejected, %d abandoned), %d of %d bytes fetched, %d on the wire\n",
		stats.Name, stats.Epochs, stats.Accepted, stats.Rejected, stats.Abandoned,
		stats.FetchedBytes, stats.LogicalBytes, stats.WireBytes)
}
