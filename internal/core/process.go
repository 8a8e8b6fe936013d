package core

import (
	"fmt"

	"orochi/internal/reports"
	"orochi/internal/trace"
)

// OpInf is the opnum of the "response departure" node (rid, ∞).
const OpInf = -1

// OpKey identifies an event node: (rid, opnum). opnum 0 is the request's
// arrival, 1..M(rid) its state operations, OpInf the response departure.
type OpKey struct {
	RID   string
	Opnum int
}

// LogPos locates an operation inside the reports: OpLogs[Obj][Seq-1].
// Seq is 1-based, matching the paper's log sequence numbers.
type LogPos struct {
	Obj int
	Seq int
}

// OpMap indexes the operation logs by (rid, opnum) (Figure 5; Lemma 1
// establishes it is a bijection with the log entries).
type OpMap map[OpKey]LogPos

// RejectError is a verification failure: the audit must reject.
type RejectError struct {
	Stage string // which check failed
	Msg   string
	// RID names the implicated request when the failing check is
	// attributable to one ("" otherwise); verdict forensics surface it.
	RID string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("audit reject [%s]: %s", e.Stage, e.Msg)
}

func rejectf(stage, format string, args ...interface{}) error {
	return &RejectError{Stage: stage, Msg: fmt.Sprintf(format, args...)}
}

func rejectRID(stage, rid, format string, args ...interface{}) error {
	return &RejectError{Stage: stage, Msg: fmt.Sprintf(format, args...), RID: rid}
}

// EventGraph is G from Figure 5: nodes are events — request arrivals
// (rid,0), alleged operations (rid,1..M), response departures (rid,∞) —
// and edges capture time precedence, program order, and alleged log
// order.
type EventGraph struct {
	nodes map[OpKey]int32
	keys  []OpKey
	edges [][]int32
	// EdgeCount totals the edges (for complexity accounting).
	EdgeCount int
}

func newEventGraph() *EventGraph {
	return &EventGraph{nodes: make(map[OpKey]int32)}
}

func (g *EventGraph) addNode(k OpKey) int32 {
	if idx, ok := g.nodes[k]; ok {
		return idx
	}
	idx := int32(len(g.keys))
	g.nodes[k] = idx
	g.keys = append(g.keys, k)
	g.edges = append(g.edges, nil)
	return idx
}

func (g *EventGraph) addEdge(from, to OpKey) {
	f := g.addNode(from)
	t := g.addNode(to)
	g.edges[f] = append(g.edges[f], t)
	g.EdgeCount++
}

// NumNodes reports the node count (2X + Y in the analysis of §A.8).
func (g *EventGraph) NumNodes() int { return len(g.keys) }

// HasCycle runs an iterative three-color DFS (the standard algorithm the
// paper cites, [32, Ch. 22]).
func (g *EventGraph) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(g.keys))
	type frame struct {
		node int32
		next int
	}
	var stack []frame
	for start := range g.keys {
		if color[start] != white {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], frame{node: int32(start)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.edges[f.node]) {
				succ := g.edges[f.node][f.next]
				f.next++
				switch color[succ] {
				case gray:
					return true
				case white:
					color[succ] = gray
					stack = append(stack, frame{node: succ})
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return false
}

// TopoOrder returns a topological order of the node keys (valid only if
// HasCycle() is false): the op schedule of the out-of-order oracle in
// the verifier's tests.
func (g *EventGraph) TopoOrder() []OpKey {
	indeg := make([]int32, len(g.keys))
	for _, succs := range g.edges {
		for _, s := range succs {
			indeg[s]++
		}
	}
	var queue []int32
	for i := range indeg {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	out := make([]OpKey, 0, len(g.keys))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, g.keys[n])
		for _, s := range g.edges[n] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return out
}

// ProcessResult is the outcome of ProcessOpReports.
type ProcessResult struct {
	OpMap OpMap
	Graph *EventGraph
	GTr   *TimeGraph
}

// ProcessOpReports implements Figure 5: it partially validates the
// reports, constructs the OpMap, builds the event graph G (split time
// nodes + program edges + state edges), and checks that G is acyclic —
// ensuring all events can be consistently ordered (§3.5). It returns a
// *RejectError when the audit must reject.
func ProcessOpReports(tr *trace.Trace, r *reports.Reports) (*ProcessResult, error) {
	gtr, err := CreateTimePrecedenceGraph(tr)
	if err != nil {
		return nil, rejectf("time-graph", "%v", err)
	}
	g := newEventGraph()

	// SplitNodes: (rid,0) and (rid,∞) per request; time edges
	// (r1,∞) -> (r2,0).
	for _, rid := range gtr.RIDs {
		g.addNode(OpKey{rid, 0})
		g.addNode(OpKey{rid, OpInf})
	}
	for from, succs := range gtr.Edges {
		for _, to := range succs {
			g.addEdge(OpKey{gtr.RIDs[from], OpInf}, OpKey{gtr.RIDs[to], 0})
		}
	}

	// AddProgramEdges: chain (rid,0) -> (rid,1) -> ... -> (rid,M) -> (rid,∞).
	for _, rid := range gtr.RIDs {
		m := r.OpCounts[rid]
		if m < 0 {
			return nil, rejectRID("op-counts", rid, "negative op count for %s", rid)
		}
		prev := OpKey{rid, 0}
		for opnum := 1; opnum <= m; opnum++ {
			cur := OpKey{rid, opnum}
			g.addEdge(prev, cur)
			prev = cur
		}
		g.addEdge(prev, OpKey{rid, OpInf})
	}

	// CheckLogs: build the OpMap, validating each entry.
	opMap := make(OpMap, r.TotalOps())
	for i, log := range r.OpLogs {
		for j, e := range log {
			if _, known := gtr.Index[e.RID]; !known {
				return nil, rejectRID("check-logs", e.RID, "log %d entry %d names unknown request %s", i, j, e.RID)
			}
			if e.Opnum <= 0 {
				return nil, rejectRID("check-logs", e.RID, "log %d entry %d has opnum %d <= 0", i, j, e.Opnum)
			}
			if e.Opnum > r.OpCounts[e.RID] {
				return nil, rejectRID("check-logs", e.RID, "log %d entry %d: opnum %d exceeds M(%s)=%d",
					i, j, e.Opnum, e.RID, r.OpCounts[e.RID])
			}
			k := OpKey{e.RID, e.Opnum}
			if _, dup := opMap[k]; dup {
				return nil, rejectRID("check-logs", e.RID, "operation (%s,%d) appears twice", e.RID, e.Opnum)
			}
			opMap[k] = LogPos{Obj: i, Seq: j + 1}
		}
	}
	for _, rid := range gtr.RIDs {
		for opnum := 1; opnum <= r.OpCounts[rid]; opnum++ {
			if _, ok := opMap[OpKey{rid, opnum}]; !ok {
				return nil, rejectRID("check-logs", rid, "operation (%s,%d) missing from logs", rid, opnum)
			}
		}
	}

	// AddStateEdges: adjacent log entries from different requests add an
	// edge; same-request entries must have increasing opnums.
	for _, log := range r.OpLogs {
		for j := 1; j < len(log); j++ {
			prev, cur := &log[j-1], &log[j]
			if prev.RID != cur.RID {
				g.addEdge(OpKey{prev.RID, prev.Opnum}, OpKey{cur.RID, cur.Opnum})
				continue
			}
			if prev.Opnum > cur.Opnum {
				return nil, rejectRID("state-edges", cur.RID, "log order violates program order for %s (%d before %d)",
					cur.RID, prev.Opnum, cur.Opnum)
			}
		}
	}

	if g.HasCycle() {
		return nil, rejectf("cycle", "events cannot be consistently ordered (graph has a cycle)")
	}
	return &ProcessResult{OpMap: opMap, Graph: g, GTr: gtr}, nil
}
