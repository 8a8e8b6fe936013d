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
// chunking edge cases and the small-group packing pass. Packing is pure
// scheduling — the packed task order must replay the exact canonical
// (tag, chunk) sequence a sequential audit runs, and audit results must
// be bit-identical at any SmallGroup setting.

// serveTampered is serveWorkload with a response-tampering hook.
func serveTampered(t *testing.T, prog *lang.Program, inputs []trace.Input,
	tamper func(rid, body string) string) (*trace.Trace, *serverArtifacts) {
	t.Helper()
	srv := server.New(prog, server.Options{Record: true, TamperResponse: tamper})
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	srv.ServeAllContext(context.Background(), inputs, 4)
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

// syntheticTasks builds a task list shaped like a real Phase 3: runs of
// tiny groups interleaved with full-size batches, across scripts.
func syntheticTasks() []groupTask {
	var tasks []groupTask
	add := func(script string, n int) {
		tasks = append(tasks, groupTask{
			tag: uint64(len(tasks)), script: script, rids: ridRange(n),
		})
	}
	for i := 0; i < 6; i++ {
		add("view", 1)
	}
	add("view", 40)
	add("view", 2)
	add("edit", 3)
	add("edit", 3)
	add("view", 7)
	add("view", 8) // at threshold 8: never packed
	for i := 0; i < 30; i++ {
		add("list", 2)
	}
	return tasks
}

// TestPackGroupTasksOrderProperty: for any threshold and cap, the
// concatenation of the packs must be exactly 0..len(tasks)-1 — the
// packed schedule replays the canonical (tag, chunk) sequence with no
// reordering, loss, or duplication.
func TestPackGroupTasksOrderProperty(t *testing.T) {
	tasks := syntheticTasks()
	for _, threshold := range []int{-1, 0, 1, 2, 8, 100} {
		for _, maxGroup := range []int{1, 4, 10, 3000} {
			packs := packGroupTasks(tasks, threshold, maxGroup)
			var flat []int
			for _, pack := range packs {
				if len(pack) == 0 {
					t.Fatalf("threshold=%d maxGroup=%d: empty pack", threshold, maxGroup)
				}
				flat = append(flat, pack...)
			}
			if len(flat) != len(tasks) {
				t.Fatalf("threshold=%d maxGroup=%d: %d indices for %d tasks", threshold, maxGroup, len(flat), len(tasks))
			}
			for i, idx := range flat {
				if idx != i {
					t.Fatalf("threshold=%d maxGroup=%d: position %d holds task %d — canonical order broken",
						threshold, maxGroup, i, idx)
				}
			}
		}
	}
}

// TestPackGroupTasksInvariants checks the packing rules themselves:
// only sub-threshold same-script neighbors coalesce, packs respect the
// combined-rid cap, and a non-positive threshold disables packing.
func TestPackGroupTasksInvariants(t *testing.T) {
	tasks := syntheticTasks()
	const threshold, maxGroup = 8, 10
	packs := packGroupTasks(tasks, threshold, maxGroup)
	sawMulti := false
	for _, pack := range packs {
		if len(pack) == 1 {
			continue
		}
		sawMulti = true
		total := 0
		for _, i := range pack {
			if len(tasks[i].rids) >= threshold {
				t.Fatalf("task %d with %d rids packed at threshold %d", i, len(tasks[i].rids), threshold)
			}
			if tasks[i].script != tasks[pack[0]].script {
				t.Fatalf("pack mixes scripts %q and %q", tasks[pack[0]].script, tasks[i].script)
			}
			total += len(tasks[i].rids)
		}
		if total > maxGroup {
			t.Fatalf("pack holds %d rids, cap %d", total, maxGroup)
		}
	}
	if !sawMulti {
		t.Fatal("no multi-task pack formed on a workload full of tiny groups")
	}

	for _, disabled := range []int{0, -1} {
		for _, pack := range packGroupTasks(tasks, disabled, maxGroup) {
			if len(pack) != 1 {
				t.Fatalf("threshold %d must disable packing, got pack of %d", disabled, len(pack))
			}
		}
	}
}

// TestSmallGroupBatchingMatchesUnbatched audits one recorded run at
// several SmallGroup × Workers settings — packing disabled, default,
// and aggressive — and requires bit-identical verdicts, replay counts,
// instruction counts, per-group stats, and final snapshots. MaxGroup 4
// splinters the workload into many small batches so packs actually
// form.
func TestSmallGroupBatchingMatchesUnbatched(t *testing.T) {
	prog := compileApp(t)
	inputs := sampleInputs(60)
	tr, art := serveWorkload(t, prog, inputs, 4)

	base, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap,
		Options{MaxGroup: 4, SmallGroup: -1, Workers: 1, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Accepted {
		t.Fatalf("baseline rejected: %s", base.Reason)
	}
	baseSnap, err := base.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	baseFP := snapshotFingerprint(t, baseSnap)

	for _, small := range []int{0, 2, 1000} {
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("small=%d/workers=%d", small, workers)
			res, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap,
				Options{MaxGroup: 4, SmallGroup: small, Workers: workers, CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted != base.Accepted || res.Reason != base.Reason {
				t.Fatalf("%s: verdict (%v, %q), baseline (%v, %q)",
					name, res.Accepted, res.Reason, base.Accepted, base.Reason)
			}
			if res.Stats.RequestsReplayed != base.Stats.RequestsReplayed ||
				res.Stats.GroupBatches != base.Stats.GroupBatches {
				t.Fatalf("%s: replayed %d in %d batches, baseline %d in %d",
					name, res.Stats.RequestsReplayed, res.Stats.GroupBatches,
					base.Stats.RequestsReplayed, base.Stats.GroupBatches)
			}
			if res.Stats.InstrUni != base.Stats.InstrUni || res.Stats.InstrMulti != base.Stats.InstrMulti {
				t.Fatalf("%s: instruction counts (%d,%d), baseline (%d,%d)",
					name, res.Stats.InstrUni, res.Stats.InstrMulti, base.Stats.InstrUni, base.Stats.InstrMulti)
			}
			if res.Stats.DedupHits != base.Stats.DedupHits || res.Stats.DedupMisses != base.Stats.DedupMisses {
				t.Fatalf("%s: dedup (%d,%d), baseline (%d,%d)",
					name, res.Stats.DedupHits, res.Stats.DedupMisses, base.Stats.DedupHits, base.Stats.DedupMisses)
			}
			if !reflect.DeepEqual(res.Stats.Groups, base.Stats.Groups) {
				t.Fatalf("%s: per-group stats diverge from baseline", name)
			}
			snap, err := res.FinalSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if fp := snapshotFingerprint(t, snap); fp != baseFP {
				t.Fatalf("%s: final snapshot diverges from baseline", name)
			}
		}
	}
}

// TestSmallGroupBatchingRejectDeterminism: with packing on, a tampered
// response must be rejected with the sequential unpacked audit's exact
// reason and forensics — including the chunk coordinate, which names
// the original (tag, chunk) batch, not the pack.
func TestSmallGroupBatchingRejectDeterminism(t *testing.T) {
	prog := compileApp(t)
	inputs := sampleInputs(60)
	tampered := "r000031"
	tr, arts := serveTampered(t, prog, inputs, func(rid, body string) string {
		if rid == tampered {
			return body + "<!-- tampered -->"
		}
		return body
	})

	base, err := AuditContext(context.Background(), prog, tr, arts.srv.Reports(), arts.snap,
		Options{MaxGroup: 4, SmallGroup: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Accepted {
		t.Fatal("tampered run accepted by baseline")
	}
	for _, small := range []int{0, 2} {
		for _, workers := range []int{1, 8} {
			res, err := AuditContext(context.Background(), prog, tr, arts.srv.Reports(), arts.snap,
				Options{MaxGroup: 4, SmallGroup: small, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted {
				t.Fatalf("small=%d workers=%d: tampered run accepted", small, workers)
			}
			if res.Reason != base.Reason {
				t.Fatalf("small=%d workers=%d: reason %q, baseline %q", small, workers, res.Reason, base.Reason)
			}
			if !reflect.DeepEqual(res.Forensics, base.Forensics) {
				t.Fatalf("small=%d workers=%d: forensics %+v, baseline %+v",
					small, workers, res.Forensics, base.Forensics)
			}
		}
	}
}
