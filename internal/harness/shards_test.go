package harness

import (
	"bytes"
	"context"
	"testing"
	"time"

	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// TestShardedReportByteEquivalence pins the acceptance criterion of the
// sharded serving path on a real workload: for a fixed deterministic
// serving run (sequential, fixed clock and seed), Shards=1 and Shards=N
// produce byte-identical reports.
func TestShardedReportByteEquivalence(t *testing.T) {
	w := workload.Wiki(workload.DefaultWikiParams().Scale(100))
	fixed := time.Unix(1700000000, 0)
	run := func(shards int) []byte {
		served, err := Serve(w, ServeConfig{
			Record: true, Concurrency: 1, RandSeed: 7, Shards: shards,
			Clock: func() time.Time { return fixed },
		})
		if err != nil {
			t.Fatal(err)
		}
		return rawReports(t, served)
	}
	base := run(1)
	for _, shards := range []int{4, 32} {
		if got := run(shards); !bytes.Equal(base, got) {
			t.Fatalf("Shards=%d reports differ from Shards=1 (lengths %d vs %d)", shards, len(base), len(got))
		}
	}
}

func rawReports(t *testing.T, served *Served) []byte {
	t.Helper()
	raw, err := served.Reports.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardedRecordingsAudit: recordings collected on the sharded
// serving path under real concurrency must audit ACCEPT on the wiki and
// forum workloads, with and without injected faults.
func TestShardedRecordingsAudit(t *testing.T) {
	cases := []struct {
		name   string
		w      *workload.Workload
		faults bool
	}{
		{"wiki", workload.Wiki(workload.DefaultWikiParams().Scale(100)), false},
		{"forum", workload.Forum(workload.DefaultForumParams().Scale(100)), false},
		{"wiki-faults", workload.WithErrors(
			workload.Wiki(workload.DefaultWikiParams().Scale(100)),
			workload.ErrorMixParams{Rate: 0.1, Seed: 3}), true},
		{"forum-faults", workload.WithErrors(
			workload.Forum(workload.DefaultForumParams().Scale(100)),
			workload.ErrorMixParams{Rate: 0.1, Seed: 3}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			served, err := Serve(tc.w, ServeConfig{Record: true, Concurrency: 8, Shards: 16})
			if err != nil {
				t.Fatal(err)
			}
			res, err := served.AuditContext(context.Background(), verifier.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("sharded recording rejected: %s", res.Reason)
			}
			if res.Stats.RequestsReplayed != served.Requests {
				t.Fatalf("replayed %d of %d requests", res.Stats.RequestsReplayed, served.Requests)
			}
		})
	}
}
