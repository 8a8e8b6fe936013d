// Wiki example: serve the paper's MediaWiki-like workload (§5) on a
// concurrent recording server, then audit it and print the acceleration
// the verifier achieved over naive sequential re-execution — the
// headline experiment of the paper at example scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"orochi/internal/harness"
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
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: *conc})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served in %v wall, %v total handler time\n", served.ServeWall, served.ServeCPU)

	baseline, err := harness.BaselineReplay(w, served)
	if err != nil {
		log.Fatal(err)
	}

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
	fmt.Printf("\nnaive sequential re-execution: %v\n", baseline)
	fmt.Printf("verifier speedup:              %.1fx\n", float64(baseline)/float64(st.Total))

	sizes, err := served.Sizes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reports: %.2f KB/request (trace: %.2f KB/request)\n",
		float64(sizes.ReportBytes)/float64(served.Requests)/1024,
		float64(sizes.TraceBytes)/float64(served.Requests)/1024)
}
