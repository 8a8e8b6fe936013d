package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"orochi/internal/lang"
	"orochi/internal/reports"
	"orochi/internal/trace"
)

func req(rid string, t int64) trace.Event {
	return trace.Event{Kind: trace.Request, RID: rid, Time: t}
}
func resp(rid string, t int64) trace.Event {
	return trace.Event{Kind: trace.Response, RID: rid, Time: t}
}

// randomTrace builds a balanced trace with random overlap.
func randomTrace(rng *rand.Rand, n int) *trace.Trace {
	var evs []trace.Event
	var open []string
	var clock int64
	issued := 0
	for issued < n || len(open) > 0 {
		clock++
		if issued < n && (len(open) == 0 || rng.Intn(2) == 0) {
			rid := fmt.Sprintf("r%03d", issued)
			issued++
			evs = append(evs, req(rid, clock))
			open = append(open, rid)
		} else {
			i := rng.Intn(len(open))
			evs = append(evs, resp(open[i], clock))
			open = append(open[:i], open[i+1:]...)
		}
	}
	return &trace.Trace{Events: evs}
}

func TestFrontierSequential(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{
		req("a", 1), resp("a", 2), req("b", 3), resp("b", 4), req("c", 5), resp("c", 6),
	}}
	g, err := CreateTimePrecedenceGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Precedes("a", "b") || !g.Precedes("b", "c") || !g.Precedes("a", "c") {
		t.Fatal("sequential requests must be totally ordered")
	}
	if g.Precedes("b", "a") || g.Precedes("c", "a") {
		t.Fatal("ordering must not be symmetric")
	}
	// Minimal edges: a->b, b->c only (a->c is implied).
	if g.EdgeCount != 2 {
		t.Fatalf("EdgeCount = %d, want 2", g.EdgeCount)
	}
}

func TestFrontierConcurrent(t *testing.T) {
	// a and b fully overlap; c follows both.
	tr := &trace.Trace{Events: []trace.Event{
		req("a", 1), req("b", 2), resp("a", 3), resp("b", 4), req("c", 5), resp("c", 6),
	}}
	g, err := CreateTimePrecedenceGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	if g.Precedes("a", "b") || g.Precedes("b", "a") {
		t.Fatal("overlapping requests must be unordered")
	}
	if !g.Precedes("a", "c") || !g.Precedes("b", "c") {
		t.Fatal("c must follow both")
	}
	if g.EdgeCount != 2 {
		t.Fatalf("EdgeCount = %d, want 2 (a->c, b->c)", g.EdgeCount)
	}
}

// TestFrontierMatchesTraceOrder is Lemma 2 as a property test:
// r1 <Tr r2  <=>  directed path in GTr.
func TestFrontierMatchesTraceOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 4+rng.Intn(12))
		g, err := CreateTimePrecedenceGraph(tr)
		if err != nil {
			return false
		}
		for _, a := range g.RIDs {
			for _, b := range g.RIDs {
				if a == b {
					continue
				}
				if g.Precedes(a, b) != tr.PrecedesTr(a, b) {
					t.Logf("seed %d: mismatch for (%s,%s)", seed, a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierMinimalEdges is Lemma 12: the frontier algorithm adds the
// minimum number of edges, which the quadratic transitive-reduction
// baseline computes independently.
func TestFrontierMinimalEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 4+rng.Intn(12))
		fast, err := CreateTimePrecedenceGraph(tr)
		if err != nil {
			return false
		}
		slow := CreateTimePrecedenceGraphQuadratic(tr)
		if fast.EdgeCount != slow.EdgeCount {
			t.Logf("seed %d: frontier %d edges, reduction %d", seed, fast.EdgeCount, slow.EdgeCount)
			return false
		}
		// And the two graphs encode the same relation.
		for _, a := range fast.RIDs {
			for _, b := range fast.RIDs {
				if a != b && fast.Precedes(a, b) != slow.Precedes(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierEpochZ(t *testing.T) {
	// P concurrent requests per epoch, E epochs: Z = P^2 * (E-1) edges
	// (each adjacent epoch pair forms a complete bipartite graph).
	const P, E = 4, 5
	var evs []trace.Event
	var clock int64
	for e := 0; e < E; e++ {
		for p := 0; p < P; p++ {
			clock++
			evs = append(evs, req(fmt.Sprintf("e%dp%d", e, p), clock))
		}
		for p := 0; p < P; p++ {
			clock++
			evs = append(evs, resp(fmt.Sprintf("e%dp%d", e, p), clock))
		}
	}
	g, err := CreateTimePrecedenceGraph(&trace.Trace{Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	want := P * P * (E - 1)
	if g.EdgeCount != want {
		t.Fatalf("EdgeCount = %d, want %d", g.EdgeCount, want)
	}
}

// --- ProcessOpReports ---

// regOps builds a single-register report set for a list of (rid, opnum,
// type, value) tuples, plus op counts.
func regReports(counts map[string]int, entries ...reports.OpEntry) *reports.Reports {
	return &reports.Reports{
		Groups:   map[uint64][]string{},
		Scripts:  map[uint64]string{},
		Objects:  []reports.ObjectID{{Kind: reports.RegisterObj, Name: "A"}},
		OpLogs:   [][]reports.OpEntry{entries},
		OpCounts: counts,
		NonDet:   map[string][]reports.NDEntry{},
	}
}

func entry(rid string, opnum int, t lang.OpType) reports.OpEntry {
	return reports.OpEntry{RID: rid, Opnum: opnum, Type: t, Key: "A"}
}

func seqTrace() *trace.Trace {
	return &trace.Trace{Events: []trace.Event{
		req("r1", 1), resp("r1", 2), req("r2", 3), resp("r2", 4),
	}}
}

func concTrace() *trace.Trace {
	return &trace.Trace{Events: []trace.Event{
		req("r1", 1), req("r2", 2), resp("r1", 3), resp("r2", 4),
	}}
}

func TestProcessAcceptsHonestSequential(t *testing.T) {
	r := regReports(map[string]int{"r1": 1, "r2": 1},
		entry("r1", 1, lang.RegisterWrite), entry("r2", 1, lang.RegisterRead))
	res, err := ProcessOpReports(seqTrace(), r)
	if err != nil {
		t.Fatalf("expected accept: %v", err)
	}
	if len(res.OpMap) != 2 {
		t.Fatalf("OpMap size = %d", len(res.OpMap))
	}
	if res.OpMap[OpKey{"r1", 1}] != (LogPos{Obj: 0, Seq: 1}) {
		t.Fatalf("OpMap[r1,1] = %+v", res.OpMap[OpKey{"r1", 1}])
	}
}

func TestProcessRejectsTimeOrderViolation(t *testing.T) {
	// r1 <Tr r2, but the log orders r2's op before r1's: cycle.
	r := regReports(map[string]int{"r1": 1, "r2": 1},
		entry("r2", 1, lang.RegisterWrite), entry("r1", 1, lang.RegisterRead))
	_, err := ProcessOpReports(seqTrace(), r)
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Stage != "cycle" {
		t.Fatalf("want cycle reject, got %v", err)
	}
}

func TestProcessAcceptsConcurrentEitherOrder(t *testing.T) {
	// Concurrent requests: both log orders are acceptable.
	for _, order := range [][]reports.OpEntry{
		{entry("r1", 1, lang.RegisterWrite), entry("r2", 1, lang.RegisterRead)},
		{entry("r2", 1, lang.RegisterRead), entry("r1", 1, lang.RegisterWrite)},
	} {
		r := regReports(map[string]int{"r1": 1, "r2": 1}, order...)
		if _, err := ProcessOpReports(concTrace(), r); err != nil {
			t.Fatalf("concurrent order should be accepted: %v", err)
		}
	}
}

func TestProcessRejectsUnknownRID(t *testing.T) {
	r := regReports(map[string]int{"r1": 1, "r2": 1, "ghost": 1},
		entry("ghost", 1, lang.RegisterWrite))
	_, err := ProcessOpReports(seqTrace(), r)
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Stage != "check-logs" {
		t.Fatalf("want check-logs reject, got %v", err)
	}
}

func TestProcessRejectsBadOpnum(t *testing.T) {
	cases := []reports.OpEntry{
		entry("r1", 0, lang.RegisterWrite), // opnum <= 0
		entry("r1", -3, lang.RegisterRead), // negative
		entry("r1", 5, lang.RegisterWrite), // exceeds M
	}
	for _, e := range cases {
		r := regReports(map[string]int{"r1": 1, "r2": 0}, e)
		if _, err := ProcessOpReports(seqTrace(), r); err == nil {
			t.Errorf("entry %+v should be rejected", e)
		}
	}
}

func TestProcessRejectsDuplicateOp(t *testing.T) {
	r := regReports(map[string]int{"r1": 1, "r2": 1},
		entry("r1", 1, lang.RegisterWrite), entry("r1", 1, lang.RegisterWrite))
	if _, err := ProcessOpReports(seqTrace(), r); err == nil {
		t.Fatal("duplicate (rid,opnum) must be rejected")
	}
}

func TestProcessRejectsMissingOp(t *testing.T) {
	// M says r1 issued 2 ops but the log has only one.
	r := regReports(map[string]int{"r1": 2, "r2": 0},
		entry("r1", 1, lang.RegisterWrite))
	if _, err := ProcessOpReports(seqTrace(), r); err == nil {
		t.Fatal("missing op must be rejected")
	}
}

func TestProcessRejectsIntraRequestLogDisorder(t *testing.T) {
	// Same request's ops out of order within one log.
	r := regReports(map[string]int{"r1": 2, "r2": 0},
		entry("r1", 2, lang.RegisterWrite), entry("r1", 1, lang.RegisterWrite))
	_, err := ProcessOpReports(seqTrace(), r)
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Stage != "state-edges" {
		t.Fatalf("want state-edges reject, got %v", err)
	}
}

func TestProcessRejectsCrossLogCycle(t *testing.T) {
	// Two logs (objects A and B) whose orders contradict each other for
	// concurrent requests — the Figure 4(b) shape: each request writes
	// one object then reads the other, and each log shows the read
	// before the write.
	r := &reports.Reports{
		Groups:  map[uint64][]string{},
		Scripts: map[uint64]string{},
		Objects: []reports.ObjectID{
			{Kind: reports.RegisterObj, Name: "A"},
			{Kind: reports.RegisterObj, Name: "B"},
		},
		OpLogs: [][]reports.OpEntry{
			{ // OL_A: r2 reads A (op 2) before r1 writes A (op 1)
				{RID: "r2", Opnum: 2, Type: lang.RegisterRead, Key: "A"},
				{RID: "r1", Opnum: 1, Type: lang.RegisterWrite, Key: "A"},
			},
			{ // OL_B: r1 reads B (op 2) before r2 writes B (op 1)
				{RID: "r1", Opnum: 2, Type: lang.RegisterRead, Key: "B"},
				{RID: "r2", Opnum: 1, Type: lang.RegisterWrite, Key: "B"},
			},
		},
		OpCounts: map[string]int{"r1": 2, "r2": 2},
		NonDet:   map[string][]reports.NDEntry{},
	}
	_, err := ProcessOpReports(concTrace(), r)
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Stage != "cycle" {
		t.Fatalf("want cycle reject, got %v", err)
	}
}

func TestProcessAcceptsCrossLogConsistent(t *testing.T) {
	// Same shape as above but both writes precede both reads — a legal
	// schedule (the Figure 4(c) shape). Must accept.
	r := &reports.Reports{
		Groups:  map[uint64][]string{},
		Scripts: map[uint64]string{},
		Objects: []reports.ObjectID{
			{Kind: reports.RegisterObj, Name: "A"},
			{Kind: reports.RegisterObj, Name: "B"},
		},
		OpLogs: [][]reports.OpEntry{
			{
				{RID: "r1", Opnum: 1, Type: lang.RegisterWrite, Key: "A"},
				{RID: "r2", Opnum: 2, Type: lang.RegisterRead, Key: "A"},
			},
			{
				{RID: "r2", Opnum: 1, Type: lang.RegisterWrite, Key: "B"},
				{RID: "r1", Opnum: 2, Type: lang.RegisterRead, Key: "B"},
			},
		},
		OpCounts: map[string]int{"r1": 2, "r2": 2},
		NonDet:   map[string][]reports.NDEntry{},
	}
	if _, err := ProcessOpReports(concTrace(), r); err != nil {
		t.Fatalf("legal schedule must be accepted: %v", err)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	r := regReports(map[string]int{"r1": 1, "r2": 1},
		entry("r1", 1, lang.RegisterWrite), entry("r2", 1, lang.RegisterRead))
	res, err := ProcessOpReports(seqTrace(), r)
	if err != nil {
		t.Fatal(err)
	}
	order := res.Graph.TopoOrder()
	if len(order) != res.Graph.NumNodes() {
		t.Fatalf("topo order incomplete: %d of %d", len(order), res.Graph.NumNodes())
	}
	pos := make(map[OpKey]int, len(order))
	for i, k := range order {
		pos[k] = i
	}
	// r1's response precedes r2's arrival (time edge), and program order
	// holds within each request.
	if pos[OpKey{"r1", OpInf}] > pos[OpKey{"r2", 0}] {
		t.Fatal("time edge violated in topological order")
	}
	if pos[OpKey{"r1", 0}] > pos[OpKey{"r1", 1}] || pos[OpKey{"r1", 1}] > pos[OpKey{"r1", OpInf}] {
		t.Fatal("program order violated in topological order")
	}
}

func TestProcessEmptyTrace(t *testing.T) {
	r := regReports(map[string]int{})
	res, err := ProcessOpReports(&trace.Trace{}, r)
	if err != nil {
		t.Fatalf("empty trace should be fine: %v", err)
	}
	if res.Graph.NumNodes() != 0 {
		t.Fatalf("nodes = %d", res.Graph.NumNodes())
	}
}

func TestProcessZeroOpRequests(t *testing.T) {
	r := regReports(map[string]int{"r1": 0, "r2": 0})
	if _, err := ProcessOpReports(seqTrace(), r); err != nil {
		t.Fatalf("zero-op requests should pass: %v", err)
	}
}

// TestProcessRandomHonestLogs: property — logs generated by simulating a
// legal concurrent schedule always pass ProcessOpReports (a slice of
// Completeness).
func TestProcessRandomHonestLogs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nReq := 3 + rng.Intn(8)
		opsPer := 1 + rng.Intn(4)
		nObjs := 1 + rng.Intn(3)

		// Simulate: requests run concurrently; each issues opsPer ops on
		// random objects. Schedule = random interleaving.
		type reqState struct {
			rid  string
			next int
		}
		var activeSet []*reqState
		var evs []trace.Event
		var clock int64
		objLogs := make([][]reports.OpEntry, nObjs)
		counts := map[string]int{}
		pending := nReq
		started := 0
		for pending > 0 {
			clock++
			switch {
			case started < nReq && (len(activeSet) == 0 || rng.Intn(3) == 0):
				rid := fmt.Sprintf("r%02d", started)
				started++
				evs = append(evs, req(rid, clock))
				activeSet = append(activeSet, &reqState{rid: rid})
				counts[rid] = opsPer
			default:
				i := rng.Intn(len(activeSet))
				st := activeSet[i]
				if st.next < opsPer {
					obj := rng.Intn(nObjs)
					st.next++
					typ := lang.RegisterRead
					if rng.Intn(2) == 0 {
						typ = lang.RegisterWrite
					}
					objLogs[obj] = append(objLogs[obj], reports.OpEntry{
						RID: st.rid, Opnum: st.next, Type: typ, Key: fmt.Sprintf("o%d", obj),
					})
				} else {
					evs = append(evs, resp(st.rid, clock))
					activeSet = append(activeSet[:i], activeSet[i+1:]...)
					pending--
				}
			}
		}
		var objs []reports.ObjectID
		for i := 0; i < nObjs; i++ {
			objs = append(objs, reports.ObjectID{Kind: reports.RegisterObj, Name: fmt.Sprintf("o%d", i)})
		}
		r := &reports.Reports{
			Groups: map[uint64][]string{}, Scripts: map[uint64]string{},
			Objects: objs, OpLogs: objLogs, OpCounts: counts,
			NonDet: map[string][]reports.NDEntry{},
		}
		_, err := ProcessOpReports(&trace.Trace{Events: evs}, r)
		if err != nil {
			t.Logf("seed %d: honest logs rejected: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Precedes reports whether r1 <Tr r2 according to the graph, via a BFS
// over time edges, for differential tests: the audit itself never
// queries paths.
func (g *TimeGraph) Precedes(r1, r2 string) bool {
	s, ok1 := g.Index[r1]
	t, ok2 := g.Index[r2]
	if !ok1 || !ok2 || s == t {
		return false
	}
	seen := make([]bool, len(g.RIDs))
	queue := []int32{int32(s)}
	seen[s] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range g.Edges[n] {
			if m == int32(t) {
				return true
			}
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	return false
}
