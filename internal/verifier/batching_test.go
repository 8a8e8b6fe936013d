package verifier

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/reports"
	"orochi/internal/server"
	"orochi/internal/trace"
)

// These tests pin the Phase-3 task construction: buildGroupTasks'
// chunking edge cases, and an audit splintered into many tiny batches
// giving bit-identical results at any Workers setting.

// serveTampered is a sequential serveWorkload with a response-tampering
// hook: one serving goroutine keeps rids in input order, so the tampered
// rid's batch is fixed.
func serveTampered(t *testing.T, prog *lang.Program, inputs []trace.Input,
	tamper func(rid, body string) string) (*trace.Trace, *serverArtifacts) {
	t.Helper()
	srv := server.New(prog, server.Options{Record: true, TamperResponse: tamper})
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	srv.ServeAllContext(context.Background(), inputs, 1)
	return srv.Trace(), &serverArtifacts{srv: srv, snap: snap}
}

func groupReports(groups map[uint64][]string) *reports.Reports {
	scripts := make(map[uint64]string, len(groups))
	for tag := range groups {
		scripts[tag] = fmt.Sprintf("s%d", tag)
	}
	return &reports.Reports{Groups: groups, Scripts: scripts}
}

func ridRange(n int) []string {
	rids := make([]string, n)
	for i := range rids {
		rids[i] = fmt.Sprintf("r%06d", i+1)
	}
	return rids
}

// TestBuildGroupTasksEdges checks the chunking boundaries: a MaxGroup
// at least as large as the group yields one batch, an exact multiple
// yields full batches only, and a remainder yields a short (down to
// single-lane) tail batch.
func TestBuildGroupTasksEdges(t *testing.T) {
	cases := []struct {
		name     string
		size     int
		maxGroup int
		want     []int // rid count per task, in order
	}{
		{"max-group-above-size", 5, 8, []int{5}},
		{"max-group-equals-size", 6, 6, []int{6}},
		{"exact-multiple", 6, 3, []int{3, 3}},
		{"single-lane-tail", 7, 3, []int{3, 3, 1}},
		{"single-request-group", 1, 3000, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := groupReports(map[uint64][]string{42: ridRange(tc.size)})
			tasks := buildGroupTasks(rep, tc.maxGroup)
			if len(tasks) != len(tc.want) {
				t.Fatalf("got %d tasks, want %d", len(tasks), len(tc.want))
			}
			var rids []string
			for i, task := range tasks {
				if task.tag != 42 || task.script != "s42" {
					t.Fatalf("task %d has tag %d script %q", i, task.tag, task.script)
				}
				if task.chunk != i {
					t.Fatalf("task %d has chunk %d, want %d", i, task.chunk, i)
				}
				if len(task.rids) != tc.want[i] {
					t.Fatalf("task %d holds %d rids, want %d", i, len(task.rids), tc.want[i])
				}
				rids = append(rids, task.rids...)
			}
			// Chunking must partition the group in order, losing nothing.
			if !reflect.DeepEqual(rids, ridRange(tc.size)) {
				t.Fatalf("chunked rids %v do not partition the group", rids)
			}
		})
	}
}

// TestBuildGroupTasksDedupesAcrossChunks: duplicate rids in a reported
// group are dropped before chunking, so a duplicate never lands in two
// batches (re-execution is idempotent but the op-replay position is
// not).
func TestBuildGroupTasksDedupesAcrossChunks(t *testing.T) {
	rids := append(ridRange(4), "r000002", "r000001")
	rep := groupReports(map[uint64][]string{7: rids})
	tasks := buildGroupTasks(rep, 2)
	if len(tasks) != 2 {
		t.Fatalf("got %d tasks, want 2", len(tasks))
	}
	var flat []string
	for _, task := range tasks {
		flat = append(flat, task.rids...)
	}
	if !reflect.DeepEqual(flat, ridRange(4)) {
		t.Fatalf("deduped rids = %v", flat)
	}
}

// TestSplinteredAuditWorkersIndependent audits one recorded run split
// by MaxGroup 4 into many tiny batches at Workers 1 and 8, and requires
// bit-identical verdicts, replay counts, instruction and dedup counts,
// per-group stats, and final snapshots.
func TestSplinteredAuditWorkersIndependent(t *testing.T) {
	prog := compileApp(t)
	inputs := sampleInputs(60)
	tr, art := serveWorkload(t, prog, inputs, 4)

	audit := func(workers int) *Result {
		res, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap,
			Options{MaxGroup: 4, Workers: workers, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := audit(1), audit(8)
	if !seq.Accepted {
		t.Fatalf("sequential audit rejected: %s", seq.Reason)
	}
	if par.Accepted != seq.Accepted || par.Reason != seq.Reason {
		t.Fatalf("verdict (%v, %q), sequential (%v, %q)", par.Accepted, par.Reason, seq.Accepted, seq.Reason)
	}
	if par.Stats.RequestsReplayed != seq.Stats.RequestsReplayed ||
		par.Stats.GroupBatches != seq.Stats.GroupBatches {
		t.Fatalf("replayed %d in %d batches, sequential %d in %d",
			par.Stats.RequestsReplayed, par.Stats.GroupBatches,
			seq.Stats.RequestsReplayed, seq.Stats.GroupBatches)
	}
	tags := make(map[uint64]bool)
	for _, g := range seq.Stats.Groups {
		tags[g.Tag] = true
	}
	if seq.Stats.GroupBatches <= len(tags) {
		t.Fatalf("%d batches for %d groups: MaxGroup 4 split no group",
			seq.Stats.GroupBatches, len(tags))
	}
	if par.Stats.InstrUni != seq.Stats.InstrUni || par.Stats.InstrMulti != seq.Stats.InstrMulti {
		t.Fatalf("instruction counts (%d,%d), sequential (%d,%d)",
			par.Stats.InstrUni, par.Stats.InstrMulti, seq.Stats.InstrUni, seq.Stats.InstrMulti)
	}
	if par.Stats.DedupHits != seq.Stats.DedupHits || par.Stats.DedupMisses != seq.Stats.DedupMisses {
		t.Fatalf("dedup (%d,%d), sequential (%d,%d)",
			par.Stats.DedupHits, par.Stats.DedupMisses, seq.Stats.DedupHits, seq.Stats.DedupMisses)
	}
	if !reflect.DeepEqual(par.Stats.Groups, seq.Stats.Groups) {
		t.Fatal("per-group stats diverge from the sequential audit")
	}
	seqSnap, err := seq.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	parSnap, err := par.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapshotFingerprint(t, parSnap) != snapshotFingerprint(t, seqSnap) {
		t.Fatal("final snapshot diverges from the sequential audit")
	}
}

// TestSplinteredAuditRejectDeterminism: on the same splintered run with
// one response tampered, Workers 8 must reject with the sequential
// audit's exact reason and forensics, including the chunk coordinate
// of the failing batch.
func TestSplinteredAuditRejectDeterminism(t *testing.T) {
	prog := compileApp(t)
	inputs := sampleInputs(60)
	tampered := "r000060" // the last of twelve "now" requests
	tr, arts := serveTampered(t, prog, inputs, func(rid, body string) string {
		if rid == tampered {
			return body + "<!-- tampered -->"
		}
		return body
	})

	audit := func(workers int) *Result {
		res, err := AuditContext(context.Background(), prog, tr, arts.srv.Reports(), arts.snap,
			Options{MaxGroup: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			t.Fatalf("workers=%d: tampered run accepted", workers)
		}
		return res
	}
	seq, par := audit(1), audit(8)
	if seq.Forensics == nil || seq.Forensics.Chunk == 0 {
		t.Fatalf("forensics %+v: want a failure past its group's first batch", seq.Forensics)
	}
	if par.Reason != seq.Reason {
		t.Fatalf("reason %q, sequential %q", par.Reason, seq.Reason)
	}
	if !reflect.DeepEqual(par.Forensics, seq.Forensics) {
		t.Fatalf("forensics %+v, sequential %+v", par.Forensics, seq.Forensics)
	}
}
