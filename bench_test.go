// Go benchmarks of what no paper figure prints: audit worker-pool and
// serving-concurrency scaling. The paper's figures themselves come from
// cmd/orochi-bench (Figures 8 and 9 from harness.PaperRow); the
// end-to-end pipeline is measured by bench/.
package orochi_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"orochi/internal/harness"
	"orochi/internal/server"
	"orochi/internal/verifier"
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

func BenchmarkAuditWorkersWiki(b *testing.B) { benchAuditWorkers(b, benchWorkloads()["Wiki"]) }

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
