package verifier

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/workload"
)

// These tests pin the parallel audit engine's contract: any Workers
// setting produces a bit-identical verdict (Accepted, Reason, final
// snapshot, statistics) to the sequential audit, on honest and
// misbehaving executions alike. CI runs this package under -race, which
// exercises the worker-pool interleavings.

// snapshotFingerprint is the snapshot's raw encoding, a function of the
// state alone.
func snapshotFingerprint(t *testing.T, snap *object.Snapshot) string {
	t.Helper()
	raw, err := snap.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// serveParallelWorkload runs a workload (schema + seed + requests)
// against a recording server, optionally tampering responses.
func serveParallelWorkload(t *testing.T, w *workload.Workload, conc int,
	tamper func(rid, body string) string) (*lang.Program, *trace.Trace, *serverArtifacts) {
	t.Helper()
	prog := w.App.Compile()
	srv := server.New(prog, server.Options{Record: true, TamperResponse: tamper})
	if err := srv.Setup(w.App.Schema); err != nil {
		t.Fatal(err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	srv.ServeAllContext(context.Background(), w.Requests, conc)
	return prog, srv.Trace(), &serverArtifacts{srv: srv, snap: snap}
}

func parallelWorkloads() map[string]*workload.Workload {
	// Wiki and forum, both with injected faulting requests: error groups
	// must take the same deterministic path under parallel re-execution.
	return map[string]*workload.Workload{
		"wiki": workload.WithErrors(
			workload.Wiki(workload.WikiParams{Requests: 250, Pages: 25, ZipfS: 0.53, Seed: 11}),
			workload.ErrorMixParams{Rate: 0.15, Seed: 7}),
		"forum": workload.WithErrors(
			workload.Forum(workload.ForumParams{Requests: 250, Topics: 8, Users: 12, GuestRatio: 0.8, Seed: 12}),
			workload.ErrorMixParams{Rate: 0.15, Seed: 8}),
	}
}

// TestParallelAuditMatchesSequential audits honest wiki/forum runs (with
// faults injected) at Workers 1 and 8 and requires identical results.
func TestParallelAuditMatchesSequential(t *testing.T) {
	for name, w := range parallelWorkloads() {
		t.Run(name, func(t *testing.T) {
			prog, tr, art := serveParallelWorkload(t, w, 6, nil)
			seq, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap, Options{Workers: 1, CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			par, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap, Options{Workers: 8, CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Accepted {
				t.Fatalf("sequential audit rejected: %s", seq.Reason)
			}
			if par.Accepted != seq.Accepted || par.Reason != seq.Reason {
				t.Fatalf("verdicts differ: seq (%v, %q) vs parallel (%v, %q)",
					seq.Accepted, seq.Reason, par.Accepted, par.Reason)
			}
			seqSnap, err := seq.FinalSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			parSnap, err := par.FinalSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if sf, pf := snapshotFingerprint(t, seqSnap), snapshotFingerprint(t, parSnap); sf != pf {
				t.Fatalf("final snapshots differ (sequential %d bytes, parallel %d)", len(sf), len(pf))
			}
			// The merged statistics must be scheduling-independent too.
			if seq.Stats.RequestsReplayed != par.Stats.RequestsReplayed {
				t.Fatalf("RequestsReplayed: seq %d, parallel %d", seq.Stats.RequestsReplayed, par.Stats.RequestsReplayed)
			}
			if seq.Stats.InstrUni != par.Stats.InstrUni || seq.Stats.InstrMulti != par.Stats.InstrMulti {
				t.Fatalf("instruction counts differ: seq (%d,%d) vs parallel (%d,%d)",
					seq.Stats.InstrUni, seq.Stats.InstrMulti, par.Stats.InstrUni, par.Stats.InstrMulti)
			}
			if len(seq.Stats.Groups) != len(par.Stats.Groups) {
				t.Fatalf("group stats: seq %d entries, parallel %d", len(seq.Stats.Groups), len(par.Stats.Groups))
			}
			for i := range seq.Stats.Groups {
				if seq.Stats.Groups[i] != par.Stats.Groups[i] {
					t.Fatalf("group stat %d differs: %+v vs %+v", i, seq.Stats.Groups[i], par.Stats.Groups[i])
				}
			}
		})
	}
}

// TestParallelAuditRejectDeterminism tampers one response and requires
// every worker count to report the sequential audit's exact verdict.
func TestParallelAuditRejectDeterminism(t *testing.T) {
	for name, w := range parallelWorkloads() {
		t.Run(name, func(t *testing.T) {
			tampered := fmt.Sprintf("r%06d", len(w.Requests)/2)
			prog, tr, art := serveParallelWorkload(t, w, 6, func(rid, body string) string {
				if rid == tampered {
					return body + "<!-- tampered -->"
				}
				return body
			})
			seq, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Accepted {
				t.Fatal("tampered response must be rejected")
			}
			for _, workers := range []int{2, 8} {
				par, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if par.Accepted {
					t.Fatalf("workers=%d accepted a tampered response", workers)
				}
				if par.Reason != seq.Reason {
					t.Fatalf("workers=%d reason %q, sequential reason %q", workers, par.Reason, seq.Reason)
				}
			}
		})
	}
}

// TestParallelAuditSmallChunks exercises multi-chunk groups (MaxGroup
// far below group sizes) across worker counts.
func TestParallelAuditSmallChunks(t *testing.T) {
	prog := compileApp(t)
	inputs := []trace.Input{{Script: "post", Post: map[string]string{"title": "only"}}}
	for i := 0; i < 40; i++ {
		inputs = append(inputs, trace.Input{Script: "list"})
	}
	tr, art := serveWorkload(t, prog, inputs, 4)
	for _, workers := range []int{1, 3, 8} {
		res, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap, Options{MaxGroup: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("workers=%d rejected: %s", workers, res.Reason)
		}
		if res.Stats.RequestsReplayed != 41 {
			t.Fatalf("workers=%d replayed %d requests, want 41", workers, res.Stats.RequestsReplayed)
		}
	}
}

// TestRejectedAuditCarriesTimings is the regression test for the
// verdict-reporting bug where a mid-Phase-3 reject dropped
// Stats.DBQuery: a rejected audit's Fig. 9 cost decomposition must
// still carry the versioned-query time and phase timings it spent.
func TestRejectedAuditCarriesTimings(t *testing.T) {
	prog := compileApp(t)
	// posts populate the DB log (DBRedo > 0); the tampered 'list'
	// request's own group issues versioned SELECTs before its output
	// comparison fails, so DBQuery > 0 on every schedule.
	var inputs []trace.Input
	for i := 0; i < 6; i++ {
		inputs = append(inputs, trace.Input{Script: "post", Post: map[string]string{"title": fmt.Sprintf("p%d", i)}})
	}
	listRID := fmt.Sprintf("r%06d", len(inputs)+1) // rids are 1-indexed
	for i := 0; i < 10; i++ {
		inputs = append(inputs, trace.Input{Script: "list"})
	}
	srv := server.New(prog, server.Options{
		Record: true,
		TamperResponse: func(rid, body string) string {
			if rid == listRID {
				return body + "<!-- tampered -->"
			}
			return body
		},
	})
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	srv.ServeAllContext(context.Background(), inputs, 1)
	for _, workers := range []int{1, 4} {
		res, err := AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), snap, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			t.Fatal("tampered response must be rejected")
		}
		if !strings.Contains(res.Reason, "output mismatch") {
			t.Fatalf("unexpected reject reason: %s", res.Reason)
		}
		st := res.Stats
		if st.DBQuery <= 0 {
			t.Fatalf("workers=%d: rejected audit reports DBQuery=%v, want > 0", workers, st.DBQuery)
		}
		if st.ProcOpRep <= 0 || st.DBRedo <= 0 || st.ReExec <= 0 || st.Total <= 0 {
			t.Fatalf("workers=%d: rejected audit dropped phase timings: %+v", workers, st)
		}
	}
}

// TestPhase2RejectCarriesDBRedo: a reject during the versioned redo
// itself must still report the redo time spent (same under-reporting
// class as the DBQuery fix, one phase earlier).
func TestPhase2RejectCarriesDBRedo(t *testing.T) {
	prog := compileApp(t)
	inputs := sampleInputs(12)
	tr, art := serveWorkload(t, prog, inputs, 2)
	rep := art.srv.Reports()
	forged := false
	for i := range rep.OpLogs {
		for j := range rep.OpLogs[i] {
			if rep.OpLogs[i][j].Type == lang.KvSet {
				rep.OpLogs[i][j].Value = "\x00not-a-value"
				forged = true
				break
			}
		}
		if forged {
			break
		}
	}
	if !forged {
		t.Fatal("no KV write found to forge")
	}
	res, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("undecodable KV write must be rejected")
	}
	if !strings.Contains(res.Reason, "undecodable KV write") {
		t.Fatalf("unexpected reject reason: %s", res.Reason)
	}
	if res.Stats.DBRedo <= 0 || res.Stats.ProcOpRep <= 0 {
		t.Fatalf("Phase 2 reject dropped timings: %+v", res.Stats)
	}
}
