package main

import (
	"orochi/internal/workload"
)

// benchWorkload is one named traffic mix. gen builds it from the seed
// alone; the program under test sees only the generated requests and
// SQL. Sizes are per round (see README.md, "Sizing").
type benchWorkload struct {
	name string
	why  string
	gen  func(seed int64) *workload.Workload
}

var benchWorkloads = []benchWorkload{
	{
		name: "wiki-zipf",
		why:  "Wiki{6000 req/round, 200 pages, Zipf 0.53}: the paper's MediaWiki mix, 92% views; control flow and SQL repeat, so lang re-execution dominates the audit and per-request serving overheads show most",
		gen: func(seed int64) *workload.Workload {
			return workload.Wiki(workload.WikiParams{Requests: 6000, Pages: 200, ZipfS: 0.53, Seed: seed})
		},
	},
	{
		name: "forum-guest",
		why:  "Forum{6000 req/round, 21 topics, 83 users, guests 40:1}: the paper's phpBB mix, read-mostly on a second app with the costliest re-execution per request, where engine work must show",
		gen: func(seed int64) *workload.Workload {
			return workload.Forum(workload.ForumParams{Requests: 6000, Topics: 21, Users: 83, GuestRatio: 40.0 / 41.0, Seed: seed})
		},
	},
	{
		name: "forum-churn",
		why:  "Forum{2000 req/round, 600 topics, 83 users, guests 1:1}: one request in six is a reply and 95% of versioned queries miss the dedup cache, so vstore dominates the audit and lang does little",
		gen: func(seed int64) *workload.Workload {
			return workload.Forum(workload.ForumParams{Requests: 2000, Topics: 600, Users: 83, GuestRatio: 0.5, Seed: seed})
		},
	},
	{
		name: "hotcrp-review",
		why:  "HotCRP{defaults/6: 44 papers, 9 reviewers, ~1975 req/round, ~7 KB responses}: bytes dominate, so epoch sealing, cas, trace and the fleet transport do most of the work, the verifier little",
		gen: func(seed int64) *workload.Workload {
			p := workload.DefaultHotCRPParams().Scale(6)
			p.Seed = seed
			return workload.HotCRP(p)
		},
	},
}

func findWorkload(name string) *benchWorkload {
	for i := range benchWorkloads {
		if benchWorkloads[i].name == name {
			return &benchWorkloads[i]
		}
	}
	return nil
}
