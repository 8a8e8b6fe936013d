// Go benchmarks of what no paper figure prints: audit worker-pool and
// serving-concurrency scaling, the two execution engines, the §4.5
// query-dedup and grouping ablations, and a small end-to-end audit.
// The paper's figures themselves come from cmd/orochi-bench (Figures 8
// and 9 from harness.PaperRow); the end-to-end pipeline is measured by
// bench/.
package orochi_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"orochi/internal/harness"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/sqlmini"
	"orochi/internal/verifier"
	"orochi/internal/vstore"
	"orochi/internal/workload"
)

// benchScale shrinks the paper workloads for in-CI benchmarking.
const benchScale = 20

func benchWorkloads() map[string]*workload.Workload {
	return map[string]*workload.Workload{
		"Wiki":  workload.Wiki(workload.DefaultWikiParams().Scale(benchScale)),
		"Forum": workload.Forum(workload.DefaultForumParams().Scale(benchScale)),
	}
}

// --- Parallel audit engine: worker-pool scaling ---

func benchAuditWorkers(b *testing.B, w *workload.Workload) {
	served, err := harness.Serve(w, server.Options{Record: true}, 8)
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
				res, err := served.AuditContext(context.Background(), verifier.Options{Workers: workers})
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

// --- Sharded serving path: throughput vs in-flight requests ---

// BenchmarkServeConcurrency sweeps ServeAllContext concurrency for the
// recording executor on the lock-striped serving path (object-store
// shards, striped recorder, RW database lock, lock-free server stats).
// On a multi-core runner req/s should rise with the goroutine count
// instead of flat-lining on global mutexes; the "/shards=1" variants pin
// the single-stripe reference.
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
					served, err := harness.Serve(w, server.Options{Record: true, Shards: shards}, conc)
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

// --- Fig-10 instruction loops the engine benchmarks run ---

// fig10Bodies holds a loop body per instruction category. $i is the
// (univalue) loop counter, $u a univalue operand, $m an operand that is
// multivalent when lanes get different seeds.
var fig10Bodies = map[string]string{
	"Multiply":  `$x = $m * 3;`,
	"GetVal":    `$x = $m;`,
	"Iteration": `foreach ($pair as $v) { $x = $v; }`,
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
	served, err := harness.Serve(w, server.Options{Record: true}, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sequential, so the ablation isolates grouping against the
		// (unparallelized) OOO audit rather than measuring worker count.
		res, err := served.AuditContext(context.Background(), verifier.Options{Workers: 1})
		if err != nil || !res.Accepted {
			b.Fatalf("%v %v", err, res)
		}
	}
}

func BenchmarkAblationOOOAudit(b *testing.B) {
	w := workload.Wiki(workload.DefaultWikiParams().Scale(benchScale))
	served, err := harness.Serve(w, server.Options{Record: true}, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verifier.OOOAuditContext(context.Background(), served.Program, served.Trace, served.Reports, served.Snapshot)
		if err != nil || !res.Accepted {
			b.Fatalf("%v %v", err, res)
		}
	}
}

// --- End-to-end audit throughput on the public API ---

func BenchmarkAuditSmall(b *testing.B) {
	w := workload.Wiki(workload.WikiParams{Requests: 200, Pages: 20, ZipfS: 0.53, Seed: 9})
	served, err := harness.Serve(w, server.Options{Record: true}, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := served.AuditContext(context.Background(), verifier.Options{})
		if err != nil || !res.Accepted {
			b.Fatal(err)
		}
	}
}
