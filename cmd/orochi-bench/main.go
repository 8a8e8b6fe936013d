// Command orochi-bench regenerates the tables and figures of the paper's
// evaluation (§5) and prints them as text. Each -fig target corresponds
// to one table/figure; -scale divides the paper-sized workloads for
// quicker runs (scale 1 = the paper's request counts).
//
//	orochi-bench -fig 8            Fig. 8 left table (speedup, overheads, sizes)
//	orochi-bench -fig 8lat         Fig. 8 right graph (latency vs throughput)
//	orochi-bench -fig 9            Fig. 9 audit-cost decomposition
//	orochi-bench -fig 10           Fig. 10 per-instruction costs
//	orochi-bench -fig 11           Fig. 11 group characteristics
//	orochi-bench -fig frontier     §3.5/§A.8 time-precedence algorithm
//	orochi-bench -fig all          everything
//
// -audit-workers sets the verifier's worker pool for the audit-running
// figures (0 = all CPUs). A figure exits 1 if any audit behind it
// REJECTs. Worker and serving-concurrency sweeps are Go benchmarks
// (BenchmarkAuditWorkers*, BenchmarkServeConcurrency in bench_test.go);
// the end-to-end pipeline is measured by bench/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"orochi/internal/core"
	"orochi/internal/harness"
	"orochi/internal/lang"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// benchCtx is cancelled by SIGINT/SIGTERM: the audits behind the
// figures abandon their worker pools cleanly instead of leaving a
// half-printed table behind a hung Ctrl-C.
var benchCtx = context.Background()

func main() {
	var stop context.CancelFunc
	benchCtx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fig := flag.String("fig", "all", "which figure/table to regenerate (8, 8lat, 9, 10, 11, frontier, all)")
	scale := flag.Int("scale", 10, "divide paper-sized workloads by this factor (1 = full size)")
	conc := flag.Int("concurrency", 8, "in-flight requests while serving")
	// The paper-shape figures default to the sequential audit so the
	// printed columns stay comparable to the paper's single-core
	// reference numbers (and Fig. 9's CPU decomposition adds up).
	auditWorkers := flag.Int("audit-workers", 1, "verifier worker pool for the audit-running figures (1 = sequential/paper-faithful, 0 = all CPUs)")
	flag.Parse()

	switch *fig {
	case "8":
		fig8(*scale, *conc, *auditWorkers)
	case "8lat":
		fig8lat(*scale, *conc)
	case "9":
		fig9(*scale, *conc, *auditWorkers)
	case "10":
		fig10()
	case "11":
		fig11(*scale, *conc, *auditWorkers)
	case "all":
		fig8(*scale, *conc, *auditWorkers)
		fig9(*scale, *conc, *auditWorkers)
		fig10()
		fig11(*scale, *conc, *auditWorkers)
		figFrontier()
		fig8lat(*scale, *conc)
	case "frontier":
		figFrontier()
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *fig)
		os.Exit(2)
	}
}

func workloads(scale int) []struct {
	name string
	w    *workload.Workload
} {
	return []struct {
		name string
		w    *workload.Workload
	}{
		{"MediaWiki", workload.Wiki(workload.DefaultWikiParams().Scale(scale))},
		{"phpBB", workload.Forum(workload.DefaultForumParams().Scale(scale))},
		{"HotCRP", workload.HotCRP(workload.DefaultHotCRPParams().Scale(scale))},
	}
}

// fig8 prints the Fig. 8 left table: audit speedup, server CPU overhead,
// report sizes, and DB overheads per application.
func fig8(scale, conc, auditWorkers int) {
	fmt.Printf("\n=== Figure 8 (left): OROCHI vs simple re-execution (scale 1/%d) ===\n", scale)
	fmt.Println("paper: speedup 10.9x/5.6x/6.2x; server ovhd 4.7%/8.6%/5.9%;")
	fmt.Println("       reports 1.7/0.3/0.4 KB/req; temp DB 1.0x/1.7x/1.5x; permanent 1x")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\treqs\taudit speedup\tserver CPU ovhd\treq avg\tbase rep/req\torochi rep/req\ttemp DB\tpermanent")
	for _, item := range workloads(scale) {
		// Server CPU overhead: compare per-request handler cost with and
		// without recording. Measured sequentially (concurrency 1) and
		// best-of-2 to keep scheduler noise out of a small difference.
		cpuBase := bestServeCPU(item.w, false, 2)
		cpuRec := bestServeCPU(item.w, true, 2)
		// Recording run under real concurrency: the audited execution.
		served, err := harness.Serve(item.w, harness.ServeConfig{Record: true, Concurrency: conc})
		check(err)
		// Baseline audit = sequential re-execution of the trace.
		baseAudit, err := harness.BaselineReplay(item.w, served)
		check(err)
		res, err := served.AuditContext(benchCtx, verifier.Options{Workers: auditWorkers})
		check(err)
		if !res.Accepted {
			fmt.Fprintf(os.Stderr, "%s: AUDIT REJECTED: %s\n", item.name, res.Reason)
			os.Exit(1)
		}
		sizes, err := served.Sizes()
		check(err)
		vdbBytes := res.FinalDB.SizeBytes()
		liveBytes := res.FinalDB.LiveSizeBytes()
		tempRatio := 1.0
		if liveBytes > 0 {
			tempRatio = float64(vdbBytes) / float64(liveBytes)
		}
		n := served.Requests
		fmt.Fprintf(tw, "%s\t%d\t%.1fx\t%.1f%%\t%.1fKB\t%.2fKB\t%.2fKB\t%.1fx\t1x\n",
			item.name, n,
			float64(baseAudit)/float64(res.Stats.Total),
			100*float64(cpuRec-cpuBase)/float64(cpuBase),
			float64(sizes.TraceBytes)/float64(n)/1024,
			float64(sizes.BaselineReportBytes)/float64(n)/1024,
			float64(sizes.ReportBytes)/float64(n)/1024,
			tempRatio)
	}
	tw.Flush()
}

// fig8lat prints the Fig. 8 right data: latency percentiles vs offered
// throughput for the phpBB workload, baseline vs OROCHI.
func fig8lat(scale, conc int) {
	fmt.Printf("\n=== Figure 8 (right): latency vs throughput, phpBB (scale 1/%d) ===\n", scale)
	fmt.Println("paper shape: OROCHI tracks the baseline with ~11-18% lower peak throughput")
	p := workload.DefaultForumParams().Scale(scale)
	if p.Requests > 4000 {
		p.Requests = 4000
	}
	w := workload.Forum(p)
	// Probe the server's peak rate to select offered loads.
	peak := probePeakRate(w, conc)
	rates := []float64{0.2 * peak, 0.4 * peak, 0.6 * peak, 0.8 * peak, 0.9 * peak}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\toffered req/s\tp50 ms\tp90 ms\tp99 ms\tachieved req/s")
	for _, record := range []bool{false, true} {
		label := "baseline"
		if record {
			label = "orochi"
		}
		for _, rate := range rates {
			p50, p90, p99, achieved := poissonRun(w, record, rate)
			fmt.Fprintf(tw, "%s\t%.0f\t%.2f\t%.2f\t%.2f\t%.0f\n", label, rate, p50, p90, p99, achieved)
		}
	}
	tw.Flush()
}

// bestServeCPU serves the workload sequentially `reps` times and returns
// the minimum summed handler time.
func bestServeCPU(w *workload.Workload, record bool, reps int) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		served, err := harness.Serve(w, harness.ServeConfig{Record: record, Concurrency: 1})
		check(err)
		if served.ServeCPU < best {
			best = served.ServeCPU
		}
	}
	return best
}

// probePeakRate measures closed-loop throughput as the rate anchor.
func probePeakRate(w *workload.Workload, conc int) float64 {
	served, err := harness.Serve(w, harness.ServeConfig{Record: false, Concurrency: conc})
	check(err)
	return float64(served.Requests) / served.ServeWall.Seconds()
}

// poissonRun offers requests at the given rate with Poisson arrivals and
// returns latency percentiles (ms) and achieved throughput.
func poissonRun(w *workload.Workload, record bool, rate float64) (p50, p90, p99, achieved float64) {
	srv := provision(w, record)
	rng := rand.New(rand.NewSource(42))
	n := len(w.Requests)
	if n > 2000 {
		n = 2000
	}
	lats := make([]time.Duration, n)
	done := make(chan int, n)
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			// Exponential inter-arrival times.
			gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			time.Sleep(gap)
			go func(i int) {
				t0 := time.Now()
				srv.Handle(w.Requests[i])
				lats[i] = time.Since(t0)
				done <- i
			}(i)
		}
	}()
	for i := 0; i < n; i++ {
		<-done
	}
	wall := time.Since(start)
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(q float64) float64 {
		idx := int(q * float64(len(sorted)-1))
		return float64(sorted[idx].Microseconds()) / 1000
	}
	return pct(0.50), pct(0.90), pct(0.99), float64(n) / wall.Seconds()
}

// provision builds a served-but-idle server carrying the workload's
// schema and seed state.
func provision(w *workload.Workload, record bool) interface {
	Handle(in trace.Input) (rid, body string)
} {
	served, err := harness.Serve(&workload.Workload{App: w.App, Seed: w.Seed},
		harness.ServeConfig{Record: record, Concurrency: 1})
	check(err)
	return served.Server
}

// fig9 prints the audit-cost decomposition.
func fig9(scale, conc, auditWorkers int) {
	fmt.Printf("\n=== Figure 9: decomposition of audit-time CPU costs (scale 1/%d) ===\n", scale)
	fmt.Println("paper shape: PHP re-execution dominates; ProcOpRep/DB-redo are small;")
	fmt.Println("             query dedup keeps 'DB query' far below baseline DB time")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tbaseline total\taudit total\tPHP\tDB query\tProcOpRep\tDB redo\tother\tdedup hit rate")
	for _, item := range workloads(scale) {
		served, err := harness.Serve(item.w, harness.ServeConfig{Record: true, Concurrency: conc})
		check(err)
		base, err := harness.BaselineReplay(item.w, served)
		check(err)
		res, err := served.AuditContext(benchCtx, verifier.Options{Workers: auditWorkers})
		check(err)
		if !res.Accepted {
			fmt.Fprintf(os.Stderr, "%s: AUDIT REJECTED: %s\n", item.name, res.Reason)
			os.Exit(1)
		}
		st := res.Stats
		hitRate := 0.0
		if st.DedupHits+st.DedupMisses > 0 {
			hitRate = float64(st.DedupHits) / float64(st.DedupHits+st.DedupMisses)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.0f%%\n",
			item.name, round(base), round(st.Total),
			round(st.ReExec-st.DBQuery), round(st.DBQuery),
			round(st.ProcOpRep), round(st.DBRedo), round(st.Other),
			100*hitRate)
	}
	tw.Flush()
}

// fig10 prints per-instruction costs: unmodified vs univalent vs the
// fixed/marginal decomposition of multivalent execution.
func fig10() {
	fmt.Println("\n=== Figure 10: instruction costs (normalized to unmodified) ===")
	fmt.Println("paper shape: multivalent fixed cost is high; marginal cost is around")
	fmt.Println("             the unmodified cost — so wins come from collapse, not SIMD")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "instruction\tunmodified ns\tunivalent\tmultival fixed\tmultival marginal")
	cats := []string{"Multiply", "Concat", "Isset", "Jump", "GetVal",
		"ArraySet", "Iteration", "Microtime", "Increment", "NewArray"}
	empty := emptyLoopProgram()
	for _, cat := range cats {
		// Compile once per category, outside every timed window: the four
		// measurements below reuse the same program.
		prog := instrProgram(cat)
		base := measureInstr(prog, empty, "plain", 1)
		uni := measureInstr(prog, empty, "simd-same", 4)
		c2 := measureInstr(prog, empty, "simd-diff", 2)
		c16 := measureInstr(prog, empty, "simd-diff", 16)
		marginal := (c16 - c2) / 14
		if marginal < 0 {
			marginal = 0 // measurement noise on lane-independent ops
		}
		fixed := c2 - 2*marginal
		if fixed < 0 {
			fixed = 0
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.2fx\t%.2fx\t%.2fx\n",
			cat, base, uni/base, fixed/base, marginal/base)
	}
	tw.Flush()
}

var fig10Bodies = map[string]string{
	"Multiply":  `$x = $m * 3;`,
	"Concat":    `$x = $m . "x";`,
	"Isset":     `$x = isset($m);`,
	"Jump":      `if ($u > 0) { $x = 1; }`,
	"GetVal":    `$x = $m;`,
	"ArraySet":  `$arr["k"] = $m;`,
	"Iteration": `foreach ($pair as $v) { $x = $v; }`,
	"Microtime": `$x = microtime();`,
	"Increment": `$m++;`,
	"NewArray":  `$x = [];`,
}

type instrBridge struct{ n int64 }

func (b *instrBridge) RegisterRead(string, int, string) (lang.Value, error) { return nil, nil }
func (b *instrBridge) RegisterWrite(string, int, string, lang.Value) error  { return nil }
func (b *instrBridge) KvGet(string, int, string) (lang.Value, error)        { return nil, nil }
func (b *instrBridge) KvSet(string, int, string, lang.Value) error          { return nil }
func (b *instrBridge) DBOp(string, int, []string) (lang.Value, error)       { return lang.NewArray(), nil }
func (b *instrBridge) NonDet(string, string, []lang.Value) (lang.Value, error) {
	b.n++
	return float64(b.n), nil
}

const instrIters = 20000

// instrProgram compiles the category's measurement loop (content-keyed
// cache: identical sources compile once per process).
func instrProgram(cat string) *lang.Program {
	src := fmt.Sprintf(`
$u = 7;
$m = intval($_GET["seed"]);
$arr = [];
$pair = [1, 2];
for ($i = 0; $i < %d; $i++) {
  %s
}
echo "done";`, instrIters, fig10Bodies[cat])
	return lang.MustCompileCached(map[string]string{"m": src})
}

// emptyLoopProgram compiles the empty-loop baseline shared by every
// category.
func emptyLoopProgram() *lang.Program {
	return lang.MustCompileCached(map[string]string{"m": fmt.Sprintf(`
$u = 7;
$m = intval($_GET["seed"]);
$arr = [];
$pair = [1, 2];
for ($i = 0; $i < %d; $i++) {
}
echo "done";`, instrIters)})
}

// measureInstr times one loop iteration of the precompiled category
// program (ns per logical instruction execution). Compilation happens in
// the callers, never inside the timed window.
func measureInstr(prog, empty *lang.Program, mode string, lanes int) float64 {
	const iters = instrIters
	rids := make([]string, lanes)
	ins := make([]lang.RequestInput, lanes)
	for i := range rids {
		rids[i] = fmt.Sprintf("r%d", i)
		seed := "5"
		if mode == "simd-diff" {
			seed = fmt.Sprint(i + 1)
		}
		ins[i] = lang.RequestInput{Get: map[string]string{"seed": seed}}
	}
	cfg := lang.Config{Script: "m", RIDs: rids, Inputs: ins}
	if mode == "plain" {
		cfg.Mode = lang.ModePlain
	} else {
		cfg.Mode = lang.ModeSIMD
		cfg.Bridge = &instrBridge{}
	}
	// Subtract the empty-loop baseline to isolate the body cost. One
	// untimed warm-up run per program keeps lazy lowering (the compiled
	// engine's first-run cost) out of the measurement.
	timeRun := func(p *lang.Program) float64 {
		if _, err := lang.Run(p, cfg); err != nil {
			check(err)
		}
		best := math.MaxFloat64
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := lang.Run(p, cfg); err != nil {
				check(err)
			}
			el := float64(time.Since(start).Nanoseconds())
			if el < best {
				best = el
			}
		}
		return best
	}
	full := timeRun(prog)
	base := timeRun(empty)
	per := (full - base) / iters
	if per < 0.1 {
		per = 0.1
	}
	return per
}

// fig11 prints the control-flow group triples for the wiki workload.
func fig11(scale, conc, auditWorkers int) {
	fmt.Printf("\n=== Figure 11: control-flow groups, MediaWiki workload (scale 1/%d) ===\n", scale)
	fmt.Println("paper shape: many groups with large n; alpha > 0.95 for all groups")
	w := workload.Wiki(workload.DefaultWikiParams().Scale(scale))
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: conc})
	check(err)
	res, err := served.AuditContext(benchCtx, verifier.Options{CollectStats: true, Workers: auditWorkers})
	check(err)
	if !res.Accepted {
		fmt.Fprintf(os.Stderr, "AUDIT REJECTED: %s\n", res.Reason)
		os.Exit(1)
	}
	groups := res.Stats.Groups
	sort.Slice(groups, func(i, j int) bool { return groups[i].N > groups[j].N })
	nBig := 0
	var alphaMin, alphaSum float64 = 1, 0
	for _, g := range groups {
		if g.N > 1 {
			nBig++
		}
		alphaSum += g.Alpha
		if g.Alpha < alphaMin {
			alphaMin = g.Alpha
		}
	}
	fmt.Printf("total groups: %d; groups with n>1: %d; mean alpha %.3f; min alpha %.3f\n",
		len(groups), nBig, alphaSum/float64(len(groups)), alphaMin)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "script\tn (requests)\tl (instructions)\talpha")
	for i, g := range groups {
		if i >= 20 {
			fmt.Fprintf(tw, "... %d more groups\t\t\t\n", len(groups)-20)
			break
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f\n", g.Script, g.N, g.Len, g.Alpha)
	}
	tw.Flush()
}

// figFrontier compares CreateTimePrecedenceGraph with the quadratic
// transitive-reduction baseline (§3.5, §A.8).
func figFrontier() {
	fmt.Println("\n=== §3.5: time-precedence graph construction (frontier vs prior work) ===")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "requests\tconcurrency P\tedges Z\tfrontier\tquadratic baseline")
	for _, x := range []int{1000, 5000} {
		for _, p := range []int{1, 8, 32} {
			tr := epochTrace(x, p)
			start := time.Now()
			g, err := core.CreateTimePrecedenceGraph(tr)
			check(err)
			fast := time.Since(start)
			quad := time.Duration(0)
			if x <= 1000 {
				start = time.Now()
				core.CreateTimePrecedenceGraphQuadratic(tr)
				quad = time.Since(start)
			}
			quadStr := "(skipped)"
			if quad > 0 {
				quadStr = round(quad)
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%s\n", x, p, g.EdgeCount, round(fast), quadStr)
		}
	}
	tw.Flush()
}

func epochTrace(nReq, lanes int) *trace.Trace {
	var evs []trace.Event
	var clock int64
	for e := 0; e < nReq/lanes; e++ {
		for p := 0; p < lanes; p++ {
			clock++
			evs = append(evs, trace.Event{Kind: trace.Request, RID: fmt.Sprintf("e%dp%d", e, p), Time: clock})
		}
		for p := 0; p < lanes; p++ {
			clock++
			evs = append(evs, trace.Event{Kind: trace.Response, RID: fmt.Sprintf("e%dp%d", e, p), Time: clock})
		}
	}
	return &trace.Trace{Events: evs}
}

func round(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func check(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "orochi-bench:", err)
	if errors.Is(err, verifier.ErrAuditCanceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
