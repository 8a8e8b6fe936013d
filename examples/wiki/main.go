// Wiki example: serve the paper's MediaWiki-like workload (§5) on a
// concurrent recording server, audit it, and print the workload's
// Fig. 8 row (harness.PaperRow): the single-core audit's acceleration
// over naive sequential re-execution and the per-request sizes — the
// headline experiment of the paper at example scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"orochi/internal/harness"
	"orochi/internal/server"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

func main() {
	requests := flag.Int("requests", 2000, "number of requests to serve")
	pages := flag.Int("pages", 100, "page population (Zipf 0.53 over these)")
	conc := flag.Int("concurrency", 8, "concurrent in-flight requests")
	flag.Parse()

	w := workload.Wiki(workload.WikiParams{
		Requests: *requests, Pages: *pages, ZipfS: 0.53, Seed: 1,
	})
	fmt.Printf("serving %d wiki requests over %d pages (concurrency %d)...\n",
		*requests, *pages, *conc)
	served, err := harness.Serve(w, server.Options{Record: true}, *conc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served in %v wall, %v total handler time\n", served.ServeWall, served.ServeCPU)

	res, err := served.AuditContext(context.Background(), verifier.Options{CollectStats: true})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Accepted {
		log.Fatalf("audit rejected: %s", res.Reason)
	}
	st := res.Stats
	fmt.Printf("\naudit ACCEPTED in %v:\n", st.Total)
	fmt.Printf("  ProcessOpReports  %v\n", st.ProcOpRep)
	fmt.Printf("  versioned DB redo %v\n", st.DBRedo)
	fmt.Printf("  re-execution      %v (of which DB queries %v)\n", st.ReExec, st.DBQuery)
	fmt.Printf("  query dedup       %d hits / %d lookups\n", st.DedupHits, st.DedupHits+st.DedupMisses)
	big := 0
	for _, g := range st.Groups {
		if g.N > 1 {
			big++
		}
	}
	fmt.Printf("  groups            %d total, %d with more than one request\n", len(st.Groups), big)

	row, err := harness.PaperRow(context.Background(), w, *conc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnaive sequential re-execution: %v\n", row.Replay)
	fmt.Printf("single-core audit:             %v\n", row.Audit.Total)
	fmt.Printf("verifier speedup:              %.1fx\n", row.Speedup)
	fmt.Printf("recording server CPU overhead: %.1f%%\n", 100*row.ServerOverhead)
	fmt.Printf("reports: %.1f B/request gzipped (trace: %.1f B/request)\n",
		row.ReportBytes, row.TraceBytes)
}
