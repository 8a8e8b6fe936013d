// Benchmarks regenerating the paper's evaluation (§5): one benchmark
// family per table/figure. Workloads are scaled down so `go test
// -bench=.` completes quickly; cmd/orochi-bench runs the paper-sized
// versions and prints the corresponding tables.
//
//	Fig. 8 (left table)  – BenchmarkFig8Audit*, BenchmarkFig8Serve*
//	Fig. 8 (right graph) – BenchmarkFig8Latency (full version in cmd)
//	Fig. 9               – BenchmarkFig9Phases*
//	Fig. 10              – BenchmarkFig10*
//	Fig. 11              – BenchmarkFig11GroupStats
//	§3.5 / §A.8 claim    – BenchmarkFrontier*
//	§4.5 dedup claim     – BenchmarkQueryDedup*
package orochi_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"orochi/internal/core"
	"orochi/internal/harness"
	"orochi/internal/lang"
	"orochi/internal/sqlmini"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/vstore"
	"orochi/internal/workload"
)

// benchScale shrinks the paper workloads for in-CI benchmarking.
const benchScale = 20

func benchWorkloads() map[string]*workload.Workload {
	return map[string]*workload.Workload{
		"Wiki":   workload.Wiki(workload.DefaultWikiParams().Scale(benchScale)),
		"Forum":  workload.Forum(workload.DefaultForumParams().Scale(benchScale)),
		"HotCRP": workload.HotCRP(workload.DefaultHotCRPParams().Scale(benchScale)),
	}
}

// --- Fig. 8 left: audit speedup ---

func benchFig8Audit(b *testing.B, w *workload.Workload) {
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 8})
	if err != nil {
		b.Fatal(err)
	}
	base, err := harness.BaselineReplay(w, served)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last *verifier.Result
	for i := 0; i < b.N; i++ {
		// Workers defaults to all CPUs: speedup_x measures the full
		// engine (dedup × parallelism) against single-core naive
		// re-execution. BenchmarkAuditWorkers* isolates the scaling.
		res, err := served.Audit(verifier.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatalf("audit rejected: %s", res.Reason)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(base)/float64(last.Stats.Total), "speedup_x")
	b.ReportMetric(float64(last.Stats.Total.Microseconds())/float64(served.Requests), "audit_us/req")
	sizes, err := served.Sizes()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(sizes.ReportBytes)/float64(served.Requests), "report_B/req")
}

func BenchmarkFig8AuditWiki(b *testing.B)   { benchFig8Audit(b, benchWorkloads()["Wiki"]) }
func BenchmarkFig8AuditForum(b *testing.B)  { benchFig8Audit(b, benchWorkloads()["Forum"]) }
func BenchmarkFig8AuditHotCRP(b *testing.B) { benchFig8Audit(b, benchWorkloads()["HotCRP"]) }

// --- Parallel audit engine: worker-pool scaling (cmd/orochi-bench
// -fig workers runs the paper-sized sweep) ---

func benchAuditWorkers(b *testing.B, w *workload.Workload) {
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 8})
	if err != nil {
		b.Fatal(err)
	}
	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := served.Audit(verifier.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Accepted {
					b.Fatalf("audit rejected: %s", res.Reason)
				}
			}
		})
	}
}

func BenchmarkAuditWorkersWiki(b *testing.B)  { benchAuditWorkers(b, benchWorkloads()["Wiki"]) }
func BenchmarkAuditWorkersForum(b *testing.B) { benchAuditWorkers(b, benchWorkloads()["Forum"]) }

// --- Fig. 8 left: server CPU overhead (baseline vs recording) ---

func benchFig8Serve(b *testing.B, w *workload.Workload, record bool) {
	prog := w.App.Compile()
	_ = prog
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := harness.ServeConfig{Record: record, Concurrency: 8}
		b.StartTimer()
		if _, err := harness.Serve(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8ServeBaselineWiki(b *testing.B) { benchFig8Serve(b, benchWorkloads()["Wiki"], false) }
func BenchmarkFig8ServeOrochiWiki(b *testing.B)   { benchFig8Serve(b, benchWorkloads()["Wiki"], true) }
func BenchmarkFig8ServeBaselineForum(b *testing.B) {
	benchFig8Serve(b, benchWorkloads()["Forum"], false)
}
func BenchmarkFig8ServeOrochiForum(b *testing.B) { benchFig8Serve(b, benchWorkloads()["Forum"], true) }
func BenchmarkFig8ServeBaselineHotCRP(b *testing.B) {
	benchFig8Serve(b, benchWorkloads()["HotCRP"], false)
}
func BenchmarkFig8ServeOrochiHotCRP(b *testing.B) {
	benchFig8Serve(b, benchWorkloads()["HotCRP"], true)
}

// --- Sharded serving path: throughput vs in-flight requests ---

// BenchmarkServeConcurrency sweeps ServeAll concurrency for the
// recording executor on the lock-striped serving path (object-store
// shards, striped recorder, RW database lock, lock-free server stats).
// On a multi-core runner req/s should rise with the goroutine count
// instead of flat-lining on global mutexes; the "/shards=1" variants pin
// the single-stripe reference. cmd/orochi-bench -fig serve prints the
// paper-sized comparison table.
func BenchmarkServeConcurrency(b *testing.B) {
	w := benchWorkloads()["Forum"]
	widths := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n > 8 {
		widths = append(widths, n)
	}
	for _, shards := range []int{1, 0} {
		label := "sharded"
		if shards == 1 {
			label = "shards=1"
		}
		for _, conc := range widths {
			b.Run(fmt.Sprintf("%s/c=%d", label, conc), func(b *testing.B) {
				var reqs int
				var wall float64
				for i := 0; i < b.N; i++ {
					served, err := harness.Serve(w, harness.ServeConfig{
						Record: true, Concurrency: conc, Shards: shards,
					})
					if err != nil {
						b.Fatal(err)
					}
					reqs += served.Requests
					wall += served.ServeWall.Seconds()
				}
				b.ReportMetric(float64(reqs)/wall, "req/s")
			})
		}
	}
}

// --- Execution engines: the reference vs the production engine ---

// benchEngines are the reference tree-walker and the production engine.
var benchEngines = []lang.Engine{lang.EngineInterp, lang.EngineCompiled}

// BenchmarkEngineInstr runs a few Fig-10 instruction loops under each
// engine directly against lang.Run — the tightest view of the lowering
// win, without server or verifier machinery around it.
func BenchmarkEngineInstr(b *testing.B) {
	for _, cat := range []string{"GetVal", "Multiply", "Iteration"} {
		prog := lang.MustCompileCached(map[string]string{"m": fig10Script(fig10Bodies[cat])})
		for _, eng := range benchEngines {
			cfg := lang.Config{
				Mode: lang.ModePlain, Script: "m", RIDs: []string{"r"},
				Inputs: []lang.RequestInput{{Get: map[string]string{"seed": "5"}}},
				Engine: eng,
			}
			b.Run(cat+"/"+eng.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := lang.Run(prog, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineSIMD is BenchmarkEngineInstr's multivalent sibling:
// the same Fig-10 loops run as one 32-lane SIMD group, uniform (every
// lane identical, the dedup-friendly case) and divergent (per-lane
// seeds force multivalue arithmetic through forLanes). This is the
// Phase-3 shape the engines actually run during an audit.
func BenchmarkEngineSIMD(b *testing.B) {
	const lanes = 32
	for _, variant := range []struct {
		name    string
		seed    func(i int) string
		collect string
	}{
		{"Uniform", func(int) string { return "5" }, "GetVal"},
		{"Divergent", func(i int) string { return fmt.Sprint(i + 1) }, "Multiply"},
	} {
		prog := lang.MustCompileCached(map[string]string{"m": fig10Script(fig10Bodies[variant.collect])})
		rids := make([]string, lanes)
		inputs := make([]lang.RequestInput, lanes)
		for i := range rids {
			rids[i] = fmt.Sprintf("r%03d", i)
			inputs[i] = lang.RequestInput{Get: map[string]string{"seed": variant.seed(i)}}
		}
		for _, eng := range benchEngines {
			cfg := lang.Config{
				Mode: lang.ModeSIMD, Script: "m", RIDs: rids, Inputs: inputs,
				Bridge: &fig10Bridge{}, Engine: eng,
			}
			b.Run(variant.name+"/"+eng.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := lang.Run(prog, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Fig. 8 right: latency under load (scaled; full sweep in cmd) ---

func BenchmarkFig8Latency(b *testing.B) {
	w := workload.Forum(workload.DefaultForumParams().Scale(benchScale * 4))
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 16})
	if err != nil {
		b.Fatal(err)
	}
	_ = served
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 9: decomposition of audit-time CPU costs ---

func benchFig9(b *testing.B, w *workload.Workload) {
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last *verifier.Result
	for i := 0; i < b.N; i++ {
		// Sequential: the Fig. 9 decomposition reports CPU costs, which
		// only add up on one worker (DBQuery is summed across workers).
		res, err := served.Audit(verifier.Options{Workers: 1})
		if err != nil || !res.Accepted {
			b.Fatalf("audit: %v %v", err, res)
		}
		last = res
	}
	b.StopTimer()
	st := last.Stats
	b.ReportMetric(float64(st.ProcOpRep.Microseconds()), "procopre_us")
	b.ReportMetric(float64(st.DBRedo.Microseconds()), "dbredo_us")
	b.ReportMetric(float64((st.ReExec - st.DBQuery).Microseconds()), "php_us")
	b.ReportMetric(float64(st.DBQuery.Microseconds()), "dbquery_us")
	b.ReportMetric(float64(st.Other.Microseconds()), "other_us")
}

func BenchmarkFig9PhasesWiki(b *testing.B)   { benchFig9(b, benchWorkloads()["Wiki"]) }
func BenchmarkFig9PhasesForum(b *testing.B)  { benchFig9(b, benchWorkloads()["Forum"]) }
func BenchmarkFig9PhasesHotCRP(b *testing.B) { benchFig9(b, benchWorkloads()["HotCRP"]) }

// --- Fig. 10: per-instruction cost, unmodified vs univalent vs multivalent ---

// fig10Bodies holds a loop body per instruction category. $i is the
// (univalue) loop counter, $u a univalue operand, $m an operand that is
// multivalent in the "Multivalent" variants.
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

func fig10Script(body string) string {
	return `
$u = 7;
$m = intval($_GET["seed"]);
$arr = [];
$pair = [1, 2];
for ($i = 0; $i < 1000; $i++) {
  ` + body + `
}
echo "done";
`
}

// fig10Bridge replays scripted nondeterminism for SIMD lanes.
type fig10Bridge struct{ n int64 }

func (b *fig10Bridge) RegisterRead(string, int, string) (lang.Value, error) { return nil, nil }
func (b *fig10Bridge) RegisterWrite(string, int, string, lang.Value) error  { return nil }
func (b *fig10Bridge) KvGet(string, int, string) (lang.Value, error)        { return nil, nil }
func (b *fig10Bridge) KvSet(string, int, string, lang.Value) error          { return nil }
func (b *fig10Bridge) DBOp(string, int, []string) (lang.Value, error)       { return lang.NewArray(), nil }
func (b *fig10Bridge) NonDet(rid, fn string, _ []lang.Value) (lang.Value, error) {
	b.n++
	return float64(b.n), nil
}

func benchFig10(b *testing.B, category string, mode string, lanes int) {
	prog := lang.MustCompile(map[string]string{"m": fig10Script(fig10Bodies[category])})
	var cfgs []lang.Config
	switch mode {
	case "Unmodified":
		cfgs = append(cfgs, lang.Config{
			Mode: lang.ModePlain, Script: "m", RIDs: []string{"r"},
			Inputs: []lang.RequestInput{{Get: map[string]string{"seed": "5"}}},
		})
	case "Univalent":
		// SIMD runtime, identical operands across lanes: everything
		// collapses and executes once.
		rids := make([]string, lanes)
		ins := make([]lang.RequestInput, lanes)
		for i := range rids {
			rids[i] = fmt.Sprintf("r%d", i)
			ins[i] = lang.RequestInput{Get: map[string]string{"seed": "5"}}
		}
		cfgs = append(cfgs, lang.Config{
			Mode: lang.ModeSIMD, Script: "m", RIDs: rids, Inputs: ins, Bridge: &fig10Bridge{},
		})
	case "Multivalent":
		// SIMD runtime, per-lane distinct operands.
		rids := make([]string, lanes)
		ins := make([]lang.RequestInput, lanes)
		for i := range rids {
			rids[i] = fmt.Sprintf("r%d", i)
			ins[i] = lang.RequestInput{Get: map[string]string{"seed": fmt.Sprint(i + 1)}}
		}
		cfgs = append(cfgs, lang.Config{
			Mode: lang.ModeSIMD, Script: "m", RIDs: rids, Inputs: ins, Bridge: &fig10Bridge{},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := lang.Run(prog, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for _, cat := range []string{
		"Multiply", "Concat", "Isset", "Jump", "GetVal",
		"ArraySet", "Iteration", "Microtime", "Increment", "NewArray",
	} {
		b.Run(cat+"/Unmodified", func(b *testing.B) { benchFig10(b, cat, "Unmodified", 1) })
		b.Run(cat+"/Univalent", func(b *testing.B) { benchFig10(b, cat, "Univalent", 4) })
		b.Run(cat+"/Multivalent2", func(b *testing.B) { benchFig10(b, cat, "Multivalent", 2) })
		b.Run(cat+"/Multivalent16", func(b *testing.B) { benchFig10(b, cat, "Multivalent", 16) })
	}
}

// --- Fig. 11: control-flow group characteristics ---

func BenchmarkFig11GroupStats(b *testing.B) {
	w := workload.Wiki(workload.DefaultWikiParams().Scale(benchScale))
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last *verifier.Result
	for i := 0; i < b.N; i++ {
		res, err := served.Audit(verifier.Options{CollectStats: true})
		if err != nil || !res.Accepted {
			b.Fatalf("audit: %v", err)
		}
		last = res
	}
	b.StopTimer()
	groups := last.Stats.Groups
	nBig := 0
	var alphaSum float64
	for _, g := range groups {
		if g.N > 1 {
			nBig++
		}
		alphaSum += g.Alpha
	}
	b.ReportMetric(float64(len(groups)), "groups")
	b.ReportMetric(float64(nBig), "groups_n>1")
	b.ReportMetric(alphaSum/float64(len(groups)), "mean_alpha")
}

// --- §3.5/§A.8: frontier algorithm vs quadratic baseline ---

func syntheticTrace(nReq, lanes int) *trace.Trace {
	// lanes concurrent requests at a time, epoch-structured.
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

func BenchmarkFrontier(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		for _, lanes := range []int{1, 8, 32} {
			tr := syntheticTrace(size, lanes)
			b.Run(fmt.Sprintf("X%d_P%d", size, lanes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.CreateTimePrecedenceGraph(tr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFrontierQuadraticBaseline(b *testing.B) {
	// The prior-work-style baseline; kept small because it is O(X^3) in
	// the worst case with the pairwise reduction.
	tr := syntheticTrace(600, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CreateTimePrecedenceGraphQuadratic(tr)
	}
}

// --- §4.5: read-query dedup ablation ---

func dedupFixture(b *testing.B) *vstore.VersionedDB {
	v := vstore.NewVersionedDB()
	if err := v.ApplyTxn(0, []string{`CREATE TABLE t (id INT, g INT, s TEXT)`}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 500; i++ {
		stmt := fmt.Sprintf(`INSERT INTO t (id, g, s) VALUES (%d, %d, %s)`,
			i, i%7, sqlmini.Quote(fmt.Sprintf("row %d", rng.Int63())))
		if err := v.ApplyTxn(int64(i), []string{stmt}); err != nil {
			b.Fatal(err)
		}
	}
	return v
}

func BenchmarkQueryDedupOn(b *testing.B) {
	v := dedupFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := vstore.NewQueryCache(v)
		// 200 identical queries after the last write: one execution.
		for q := 0; q < 200; q++ {
			if _, err := cache.Query(`SELECT id, s FROM t WHERE g = 3`, vstore.Ts(501, 0)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkQueryDedupOff(b *testing.B) {
	v := dedupFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 0; q < 200; q++ {
			if _, err := v.QuerySQL(`SELECT id, s FROM t WHERE g = 3`, vstore.Ts(501, 0)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablation: what does grouping buy? (grouped SIMD vs Appendix A's
// per-request out-of-order audit, which shares every other mechanism) ---

func BenchmarkAblationGroupedAudit(b *testing.B) {
	w := workload.Wiki(workload.DefaultWikiParams().Scale(benchScale))
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sequential, so the ablation isolates grouping against the
		// (unparallelized) OOO audit rather than measuring worker count.
		res, err := served.Audit(verifier.Options{Workers: 1})
		if err != nil || !res.Accepted {
			b.Fatalf("%v %v", err, res)
		}
	}
}

func BenchmarkAblationOOOAudit(b *testing.B) {
	w := workload.Wiki(workload.DefaultWikiParams().Scale(benchScale))
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verifier.OOOAudit(served.Program, served.Trace, served.Reports, served.Snapshot)
		if err != nil || !res.Accepted {
			b.Fatalf("%v %v", err, res)
		}
	}
}

// --- End-to-end audit throughput on the public API ---

func BenchmarkAuditSmall(b *testing.B) {
	w := workload.Wiki(workload.WikiParams{Requests: 200, Pages: 20, ZipfS: 0.53, Seed: 9})
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := served.Audit(verifier.Options{})
		if err != nil || !res.Accepted {
			b.Fatal(err)
		}
	}
}
