// Command orochi-audit verifies an epoch chain produced by
// orochi-serve's epoch pipeline against the application sources (-app
// or -src): each sealed epoch's trace and report bundle are
// integrity-checked against the manifest digests, the manifests' hash
// chain is validated, and the epochs get the full SSCO audit — -workers
// of them at once, epoch N+1 from the final state epoch N's redo fixes
// — and are decided in sequence: epoch N+1's trusted initial state is
// epoch N's verified final snapshot. -from/-to select a sub-range;
// auditing from the middle resumes from the checkpoint a previous run
// persisted.
//
//	orochi-audit -app wiki -epochs ./epochs
//	orochi-audit -src ./myapp -epochs ./epochs -from 3 -to 5
//
// Re-execution inside each audit fans out across all CPUs by default;
// -audit-workers N bounds the worker pool (1 = sequential). The verdict
// is identical at any worker count.
//
// Long audits are cancellable and observable: SIGINT/SIGTERM abandons
// the audit cleanly (no verdict is recorded for the interrupted epoch —
// cancellation is never a REJECT — and a later run re-audits it), and
// -progress streams phase and per-group progress to stderr.
//
// Storage maintenance (with -epochs, no re-audit):
//
//	orochi-audit -epochs ./epochs -gc -gc-dry-run   # report sweepable chunks
//	orochi-audit -epochs ./epochs -gc               # sweep unreferenced chunks
//	orochi-audit -epochs ./epochs -gc -retain 30    # also compact verified epochs older than the newest 30
//	orochi-audit -epochs ./epochs -scrub            # retrievability self-audit (challenge-reads sampled chunks)
//
// -gc keeps every chunk any sealed manifest references, so the chain
// stays fully re-auditable; with -retain N, epochs older than the
// newest N that hold a stored ACCEPT decision and a checkpoint are
// compacted to exactly those two artifacts. -scrub walks the manifest
// hash chain and challenge-reads sampled chunks; a failure is recorded
// in the chain's decision log — as a scrub annotation on an epoch that
// already holds a decision (the stored verdict and its resolution
// stand), or as a fresh REJECT decision for a never-audited epoch.
//
// Both -gc and -scrub take the chain directory's exclusive lock and
// refuse to run while a live orochi-serve is sealing into it: GC would
// read an in-flight seal's chunks as orphans, and a second decision-log
// writer could race a live append.
//
// A chain is stamped with the format generation of the build that
// sealed it (epoch.ManifestVersion, in every manifest). A chain of
// another generation is refused, never audited: it says nothing about
// the server, so it is no REJECT and nothing is written to its decision
// log. Every mode that reads a chain (-epochs, -coordinate, -gc,
// -scrub, -serve-artifacts, -explain) then exits 3; audit it with the
// build that sealed it, or re-serve.
//
// Exit status: 0 = accepted, 1 = rejected (or scrub failures),
// 2 = usage/IO error, 3 = chain sealed by a build of another format
// generation, 130 = canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"orochi/internal/apps"
	"orochi/internal/epoch"
	"orochi/internal/fleet"
	"orochi/internal/lang"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

func main() {
	appName := flag.String("app", "", "built-in application to audit (wiki, forum, hotcrp)")
	srcDir := flag.String("src", "", "directory of application sources (alternative to -app)")
	epochsDir := flag.String("epochs", "", "epoch chain directory to audit (or to maintain, serve or explain)")
	from := flag.Int64("from", 0, "first epoch to audit (with -epochs; default 1, >1 resumes from a checkpoint)")
	to := flag.Int64("to", 0, "last epoch to audit (with -epochs; default: all sealed)")
	workers := flag.Int("workers", 2, "epochs audited concurrently (with -epochs); verdicts are published in chain order")
	auditWorkers := flag.Int("audit-workers", 0, "concurrent re-execution workers inside each audit (0 = all CPUs, 1 = sequential)")
	stats := flag.Bool("stats", false, "print per-group statistics")
	progress := flag.Bool("progress", false, "stream audit progress (phases, groups re-executed, ops replayed) to stderr")
	withErrors := flag.Bool("with-errors", false, "the serve run injected faulting requests (orochi-serve -fault-rate); audit against the app extended with the fault scripts")
	explain := flag.Int64("explain", 0, "render the stored decision (verdict, forensics, timings) for this epoch from -epochs' decision log and exit; reads the log only, no re-audit")
	gc := flag.Bool("gc", false, "garbage-collect -epochs' chunk store (sweep unreferenced chunks) and exit; no re-audit")
	gcDryRun := flag.Bool("gc-dry-run", false, "with -gc: report what would be compacted and swept without deleting anything")
	retain := flag.Int("retain", 0, "with -gc: compact verified epochs older than the newest N to decision+checkpoint (0 = no compaction)")
	scrub := flag.Bool("scrub", false, "run the retrievability self-audit over -epochs and exit; failures are recorded in the decision log (REJECT for never-audited epochs, an annotation otherwise)")
	scrubSample := flag.Int("scrub-sample", 0, "with -scrub: chunks challenged per epoch (default 16, -1 = every chunk)")
	serveArtifacts := flag.String("serve-artifacts", "", "serve -epochs' manifests and chunks to fleet workers on this address (e.g. :8090) until interrupted; no audit")
	coordinate := flag.String("coordinate", "", "coordinate a distributed audit of -epochs on this address: serve artifacts, lease epochs to -worker processes, collect signed verdicts")
	workerMode := flag.Bool("worker", false, "run as a fleet audit worker pulling epoch leases (needs -coordinator and -app/-src)")
	coordinatorURL := flag.String("coordinator", "", "coordinator base URL for -worker (e.g. http://host:8090)")
	artifactsURL := flag.String("artifacts", "", "artifact server base URL for -worker (default: the coordinator)")
	fleetKey := flag.String("fleet-key", "", "shared HMAC key authenticating fleet traffic (must match across coordinator and workers; empty = unsigned)")
	crossCheck := flag.Float64("cross-check", 0, "fraction of epochs, in [0, 1], whose verdict is believed only once two leases agree on it (with -coordinate; 1 = every epoch)")
	workerCache := flag.String("worker-cache", "", "directory for the worker's persistent chunk cache (default: in-memory; a warm cache fetches only missing chunks)")
	workerName := flag.String("worker-name", "", "worker identity in leases and forensics (default host:pid)")
	flag.Parse()

	if *explain > 0 {
		if *epochsDir == "" {
			fmt.Fprintln(os.Stderr, "orochi-audit: -explain needs -epochs (the chain directory holding the decision log)")
			os.Exit(2)
		}
		explainEpoch(*epochsDir, *explain)
		return
	}

	// SIGINT/SIGTERM cancel the audit: the verifier abandons its work
	// between tasks and returns ErrAuditCanceled — never a verdict.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *gc {
		if *epochsDir == "" {
			fmt.Fprintln(os.Stderr, "orochi-audit: -gc needs -epochs (the chain directory to collect)")
			os.Exit(2)
		}
		lock := lockChainOrExit(*epochsDir, "-gc")
		defer lock.Unlock()
		gcChain(*epochsDir, epoch.GCOptions{DryRun: *gcDryRun, Retain: *retain})
		return
	}
	if *scrub {
		if *epochsDir == "" {
			fmt.Fprintln(os.Stderr, "orochi-audit: -scrub needs -epochs (the chain directory to challenge)")
			os.Exit(2)
		}
		lock := lockChainOrExit(*epochsDir, "-scrub")
		defer lock.Unlock()
		scrubChain(ctx, *epochsDir, *scrubSample)
		return
	}

	vopts := verifier.Options{CollectStats: *stats, Workers: *auditWorkers}
	if *progress {
		vopts.Observer = &progressPrinter{}
	}

	if *workerMode {
		if *coordinatorURL == "" {
			fmt.Fprintln(os.Stderr, "orochi-audit: -worker needs -coordinator (the coordinator's base URL)")
			os.Exit(2)
		}
		prog, err := loadProgram(*appName, *srcDir, *withErrors)
		exitOn(err)
		workerCmd(ctx, prog, fleet.WorkerOptions{
			Coordinator: strings.TrimSuffix(*coordinatorURL, "/"),
			Artifacts:   strings.TrimSuffix(*artifactsURL, "/"),
			Name:        *workerName,
			Key:         []byte(*fleetKey),
			Verify:      vopts,
		}, *workerCache)
		return
	}
	if *serveArtifacts != "" {
		if *epochsDir == "" {
			fmt.Fprintln(os.Stderr, "orochi-audit: -serve-artifacts needs -epochs (the chain directory to serve)")
			os.Exit(2)
		}
		serveArtifactsCmd(ctx, *epochsDir, *serveArtifacts)
		return
	}
	if *coordinate != "" {
		if *epochsDir == "" {
			fmt.Fprintln(os.Stderr, "orochi-audit: -coordinate needs -epochs (the chain directory to audit)")
			os.Exit(2)
		}
		coordinateCmd(ctx, *epochsDir, *coordinate, fleet.CoordinatorOptions{
			CrossCheck: *crossCheck,
			Key:        []byte(*fleetKey),
			To:         *to,
		})
		return
	}

	if *epochsDir == "" {
		fmt.Fprintln(os.Stderr, "orochi-audit: -epochs is required (or -worker)")
		flag.Usage()
		os.Exit(2)
	}
	prog, err := loadProgram(*appName, *srcDir, *withErrors)
	exitOn(err)
	auditEpochs(ctx, prog, *epochsDir, *from, *to, *workers, vopts)
}

// explainEpoch renders one epoch's stored decision — the durable record
// the auditor appended when it published the verdict — without touching
// the chain's evidence or re-running anything. Exit status mirrors the
// verdict: 0 for ACCEPT, 1 for REJECT, 2 when no decision exists (3
// for a chain of another format generation, whose log this build did
// not write).
func explainEpoch(dir string, n int64) {
	exitOn(epoch.CheckChainFormat(dir))
	decisions, err := epoch.ReadDecisions(dir)
	if os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "orochi-audit: no decision log in %s (has anything been audited there?)\n", dir)
		os.Exit(2)
	}
	exitOn(err)
	for _, d := range decisions {
		if d.Epoch == n {
			writeDecision(os.Stdout, d)
			if !d.Accepted {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "orochi-audit: no decision recorded for epoch %d in %s\n", n, dir)
	os.Exit(2)
}

// writeDecision renders a stored decision for terminals.
func writeDecision(w io.Writer, d epoch.Decision) {
	verdict := "ACCEPT"
	if !d.Accepted {
		verdict = "REJECT"
	}
	fmt.Fprintf(w, "epoch %d: %s", d.Epoch, verdict)
	if d.Reason != "" {
		fmt.Fprintf(w, " — %s", d.Reason)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "decided: %s   resolution: %s", d.DecidedAt.Format(time.RFC3339), d.Resolution)
	if d.Note != "" {
		fmt.Fprintf(w, " (%s at %s)", d.Note, d.AckedAt.Format(time.RFC3339))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "evidence: %d requests, %d events   manifest %.12s   chain %.12s\n",
		d.Requests, d.Events, d.ManifestSHA, d.ChainSHA)
	if d.ScrubFailed {
		fmt.Fprintf(w, "scrub: FAILED %s — %s\n", d.ScrubAt.Format(time.RFC3339), d.ScrubDetail)
	}
	if d.Timings.Total > 0 {
		fmt.Fprintf(w, "audit time: %v (procopre %v, db redo %v, re-exec %v [db query %v], other %v)\n",
			d.Timings.Total, d.Timings.ProcOpRep, d.Timings.DBRedo, d.Timings.ReExec, d.Timings.DBQuery, d.Timings.Other)
	}
	if d.GroupBatches > 0 {
		fmt.Fprintf(w, "dedup: %d requests replayed in %d group batches (%.1f req/batch)\n",
			d.RequestsReplayed, d.GroupBatches, float64(d.RequestsReplayed)/float64(d.GroupBatches))
	}
	if d.Forensics != nil {
		fmt.Fprintln(w, "forensics:")
		for _, line := range strings.Split(d.Forensics.String(), "\n") {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}

// lockChainOrExit takes the chain directory's exclusive lock for a
// maintenance pass. Maintenance mutates the chunk store and the
// decision log, so running it against a chain a live orochi-serve is
// sealing into must fail up front, not corrupt the chain.
func lockChainOrExit(dir, op string) *epoch.ChainLock {
	lock, err := epoch.LockChain(dir)
	if errors.Is(err, epoch.ErrChainBusy) {
		fmt.Fprintf(os.Stderr, "orochi-audit: %s refused: %s is in use by a live process (orochi-serve?); stop it first\n", op, dir)
		os.Exit(2)
	}
	exitOn(err)
	return lock
}

// gcChain runs one garbage-collection pass and prints what it did.
func gcChain(dir string, opts epoch.GCOptions) {
	res, err := epoch.GC(dir, opts)
	exitOn(err)
	mode := ""
	if opts.DryRun {
		mode = " (dry run — nothing deleted)"
	}
	if len(res.Compacted) > 0 {
		fmt.Printf("compacted %d epoch(s) to decision+checkpoint: %v%s\n", len(res.Compacted), res.Compacted, mode)
	}
	if len(res.Skipped) > 0 {
		fmt.Printf("skipped %d retention candidate(s) without an ACCEPT decision and checkpoint: %v\n", len(res.Skipped), res.Skipped)
	}
	fmt.Printf("gc: %d epochs scanned, %d live chunks, %d chunks swept (%d bytes at rest)%s\n",
		res.Epochs, res.LiveChunks, res.SweptChunks, res.SweptBytes, mode)
	fmt.Printf("gc: chunk refs %d (%d logical bytes), unique %d (%d logical bytes)\n",
		res.Sharing.Refs, res.Sharing.RefBytes, res.Sharing.Unique, res.Sharing.UniqueBytes)
}

// scrubChain runs one retrievability pass, records failures in the
// decision log (see epoch.RecordScrubFailures), and exits 1 when any
// challenge failed.
func scrubChain(ctx context.Context, dir string, sample int) {
	res, err := epoch.Scrub(ctx, dir, epoch.ScrubOptions{Sample: sample})
	exitOn(err)
	fmt.Printf("scrub: %d epochs (%d compacted), %d chunks + %d files challenged\n",
		res.Epochs, res.Compacted, res.ChunksChecked, res.FilesChecked)
	if res.OK() {
		fmt.Println("scrub verdict: ACCEPT — every challenged artifact intact and retrievable")
		return
	}
	for _, f := range res.Failures {
		fmt.Printf("scrub FAIL: %s\n", f)
	}
	log, err := epoch.OpenDecisionLog(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orochi-audit: scrub failures could not be recorded:", err)
		os.Exit(1)
	}
	defer log.Close()
	n, err := epoch.RecordScrubFailures(log, dir, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orochi-audit: scrub failures could not be recorded:", err)
		os.Exit(1)
	}
	fmt.Printf("scrub verdict: REJECT — %d failed challenge(s), %d recorded in the decision log\n", len(res.Failures), n)
	os.Exit(1)
}

// auditEpochs verifies a sealed epoch chain and prints the ledger. It
// keeps a checkpoint of every accepted epoch, so a later run can start
// with -from past it; a -from whose checkpoint is missing surfaces as
// the first drain's error, before anything is written.
func auditEpochs(ctx context.Context, prog *lang.Program, dir string, from, to int64, workers int, verify verifier.Options) {
	opts := epoch.AuditorOptions{
		Workers:     workers,
		From:        from,
		To:          to,
		Checkpoints: true,
		Verify:      verify,
	}
	a := epoch.NewAuditor(prog, dir, opts)
	_, err := a.DrainSealed(ctx, 200*time.Millisecond, func(err error) {
		fmt.Fprintln(os.Stderr, "orochi-audit:", err)
	})
	exitOn(err)
	printLedger(dir, a.Ledger(), to, verify.CollectStats)
}

// printLedger renders a finished chain audit — the local auditor's or
// the fleet coordinator's, both feed an epoch.Ledger — and exits 1 on
// anything but a clean ACCEPT of every sealed epoch (2 when there was
// nothing to audit).
func printLedger(dir string, ledger *epoch.Ledger, to int64, stats bool) {
	verdicts := ledger.Verdicts()
	if len(verdicts) == 0 {
		fmt.Fprintf(os.Stderr, "orochi-audit: no sealed epochs to audit in %s\n", dir)
		os.Exit(2)
	}
	var requests int
	for _, v := range verdicts {
		requests += v.Requests
		if v.Accepted {
			fmt.Printf("epoch %d: ACCEPT — %d requests, %d events, audit %v (chain %.12s)\n",
				v.Epoch, v.Requests, v.Events, v.Stats.Total, v.ChainSHA)
			if stats {
				for _, g := range v.Stats.Groups {
					fmt.Printf("    group %016x %-14s n=%-6d len=%-8d alpha=%.3f\n",
						g.Tag, g.Script, g.N, g.Len, g.Alpha)
				}
			}
		} else {
			fmt.Printf("epoch %d: REJECT — %s (chain %.12s)\n", v.Epoch, v.Reason, v.ChainSHA)
		}
	}
	last := verdicts[len(verdicts)-1]
	if !ledger.ChainAccepted() {
		fmt.Printf("chain verdict: REJECT at epoch %d (ledger %.12s)\n", last.Epoch, last.ChainSHA)
		fmt.Printf("(stored forensics: orochi-audit -epochs %s -explain %d)\n", dir, last.Epoch)
		os.Exit(1)
	}
	// A seal gap (epoch N unsealed while a later epoch is sealed) means
	// the chain cannot be verified past N: evidence is missing, which
	// must not read as a clean ACCEPT of the whole directory. An error
	// here means completeness could not be checked at all — also not an
	// ACCEPT.
	unreachable, err := sealedPastGap(dir, ledger.Next(), to)
	exitOn(err)
	if unreachable > 0 {
		fmt.Printf("chain verdict: INCOMPLETE — epoch %d is not sealed but %d later sealed epoch(s) exist and cannot be verified\n",
			ledger.Next(), unreachable)
		os.Exit(1)
	}
	fmt.Printf("chain verdict: ACCEPT — %d epochs, %d requests (ledger %.12s)\n",
		len(verdicts), requests, last.ChainSHA)
}

// sealedPastGap counts sealed epochs at or after next (bounded by -to)
// that the auditor could not reach because an earlier epoch is missing.
func sealedPastGap(dir string, next, to int64) (int, error) {
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, s := range sealed {
		if s.Number >= next && (to == 0 || s.Number <= to) {
			n++
		}
	}
	return n, nil
}

func loadProgram(appName, srcDir string, withErrors bool) (*lang.Program, error) {
	switch {
	case appName != "" && srcDir != "":
		return nil, fmt.Errorf("orochi-audit: use only one of -app and -src")
	case appName != "":
		app := apps.ByName(appName)
		if app == nil {
			return nil, fmt.Errorf("orochi-audit: unknown app %q (want wiki, forum or hotcrp)", appName)
		}
		if withErrors {
			app = workload.WithErrorScripts(app)
		}
		return app.Compile(), nil
	case srcDir != "":
		if withErrors {
			return nil, fmt.Errorf("orochi-audit: -with-errors applies only to -app (add the fault scripts to your -src directory instead)")
		}
		entries, err := os.ReadDir(srcDir)
		if err != nil {
			return nil, err
		}
		files := map[string]string{}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".php") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
			if err != nil {
				return nil, err
			}
			files[strings.TrimSuffix(e.Name(), ".php")] = string(data)
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("orochi-audit: no .php files in %s", srcDir)
		}
		return lang.CompileCached(files)
	default:
		return nil, fmt.Errorf("orochi-audit: one of -app or -src is required")
	}
}

func exitOn(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "orochi-audit:", err)
	switch {
	case errors.Is(err, verifier.ErrAuditCanceled):
		// Interrupted, not faulted: no verdict exists either way, and a
		// later run picks up exactly where the evidence stands.
		os.Exit(130)
	case errors.Is(err, epoch.ErrChainFormat):
		os.Exit(3)
	}
	os.Exit(2)
}

// progressPrinter streams the verifier's observer callbacks to stderr
// (-progress). With -audit-workers > 1 the group and op callbacks fire
// concurrently, so all state sits behind one mutex.
type progressPrinter struct {
	mu    sync.Mutex
	units int
	done  int
	ops   int64
}

func (p *progressPrinter) PhaseStart(phase string, units int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.units, p.done = units, 0
	if phase == verifier.PhaseRedo {
		// One printer observes every epoch of a chain audit; the ops
		// figure is per-phase, not cumulative across epochs.
		p.ops = 0
	}
	if units > 0 {
		fmt.Fprintf(os.Stderr, "audit: %s (%d work items)\n", phase, units)
	} else {
		fmt.Fprintf(os.Stderr, "audit: %s\n", phase)
	}
}

func (p *progressPrinter) PhaseEnd(phase string, took time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if phase == verifier.PhaseRedo && p.ops > 0 {
		fmt.Fprintf(os.Stderr, "audit: %s done in %v (%d ops replayed)\n", phase, took.Round(time.Millisecond), p.ops)
		return
	}
	fmt.Fprintf(os.Stderr, "audit: %s done in %v\n", phase, took.Round(time.Millisecond))
}

func (p *progressPrinter) GroupReexecuted(script string, tag uint64, requests int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	fmt.Fprintf(os.Stderr, "audit: re-executed group %016x %s (n=%d) [%d/%d]\n",
		tag, script, requests, p.done, p.units)
}

func (p *progressPrinter) OpsReplayed(ops int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops += int64(ops)
}

func (p *progressPrinter) Verdict(accepted bool, reason string) {}
