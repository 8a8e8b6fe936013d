// Forum example: the phpBB-like application under concurrent load with
// sessions, transactions, and contended counters — then a full audit,
// plus a demonstration that the audit carries the verified final state
// forward as the next period's initial state (§4.5: audit periods chain).
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
	requests := flag.Int("requests", 1500, "requests per audit period")
	conc := flag.Int("concurrency", 8, "concurrent in-flight requests")
	flag.Parse()

	w := workload.Forum(workload.ForumParams{
		Requests: *requests, Topics: 12, Users: 20, GuestRatio: 40.0 / 41.0, Seed: 7,
	})
	fmt.Printf("period 1: serving %d forum requests (concurrency %d)...\n", *requests, *conc)
	served, err := harness.Serve(w, server.Options{Record: true}, *conc)
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
	fmt.Printf("period 1 audit ACCEPTED in %v (replayed %d requests in %d groups)\n",
		res.Stats.Total, res.Stats.RequestsReplayed, len(res.Stats.Groups))

	// The verifier now owns the verified post-period state: migrate the
	// versioned store's final contents (the paper's M -> V dump) and
	// compare with what the server actually holds.
	final, err := res.FinalDB.MigrateFinal()
	if err != nil {
		log.Fatal(err)
	}
	verifierPosts := -1
	for _, t := range final {
		if t.Name == "posts" {
			verifierPosts = len(t.Rows)
		}
	}
	serverView, err := served.Server.Store.DB.Exec(`SELECT COUNT(*) FROM posts`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post count after period 1: verifier sees %v, server holds %v\n",
		verifierPosts, serverView.Rows[0][0])
	if serverView.Rows[0][0] != int64(verifierPosts) {
		log.Fatal("verified state diverged from server state")
	}

	row, err := harness.PaperRow(context.Background(), w, *conc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-core audit speedup vs sequential re-execution: %.1fx\n", row.Speedup)
	fmt.Printf("reports: %.1f B/request gzipped (trace: %.1f B/request)\n",
		row.ReportBytes, row.TraceBytes)

	// Show the biggest control-flow groups the audit exploited.
	fmt.Println("\nlargest control-flow groups:")
	top := res.Stats.Groups
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].N > top[i].N {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	for i, g := range top {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-12s n=%-5d instructions=%-6d univalent fraction=%.2f\n",
			g.Script, g.N, g.Len, g.Alpha)
	}
}
