// Package core implements the SSCO audit machinery of the paper's
// Figures 5 and 6: the streaming time-precedence graph construction
// (CreateTimePrecedenceGraph, §3.5), report validation and OpMap
// construction (CheckLogs), the event graph G with program/state/time
// edges, and cycle detection. These are the consistent-ordering checks
// that precede grouped re-execution.
package core

import (
	"fmt"

	"orochi/internal/trace"
)

// TimeGraph is GTr: one node per request, with edges materializing the
// <Tr relation (r1 <Tr r2 iff a directed path exists from r1 to r2).
type TimeGraph struct {
	// RIDs maps node index -> requestID; Index is the inverse.
	RIDs  []string
	Index map[string]int
	// Edges[i] lists the successors of node i; Parents[i] its direct
	// predecessors (needed by the frontier algorithm).
	Edges   [][]int32
	Parents [][]int32
	// EdgeCount is the total number of edges (Z in the complexity
	// analysis of §A.8).
	EdgeCount int
}

// CreateTimePrecedenceGraph implements Figure 6: the O(X+Z) streaming
// algorithm that materializes the <Tr partial order with the minimum
// number of edges (Lemma 12). It tracks a "frontier" — the set of
// latest, mutually concurrent completed requests. Every new arrival
// descends from all members of the frontier; when a request's response
// departs, it evicts its parents from the frontier and joins it.
//
// The trace must be balanced (callers run tr.Balanced() first).
func CreateTimePrecedenceGraph(tr *trace.Trace) (*TimeGraph, error) {
	g := &TimeGraph{Index: make(map[string]int)}
	// Frontier as a set of node indices.
	frontier := make(map[int32]struct{})
	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Kind {
		case trace.Request:
			if _, dup := g.Index[ev.RID]; dup {
				return nil, fmt.Errorf("core: duplicate request %s", ev.RID)
			}
			idx := int32(len(g.RIDs))
			g.Index[ev.RID] = int(idx)
			g.RIDs = append(g.RIDs, ev.RID)
			g.Edges = append(g.Edges, nil)
			g.Parents = append(g.Parents, nil)
			for r := range frontier {
				g.Edges[r] = append(g.Edges[r], idx)
				g.Parents[idx] = append(g.Parents[idx], r)
				g.EdgeCount++
			}
		case trace.Response:
			idx, ok := g.Index[ev.RID]
			if !ok {
				return nil, fmt.Errorf("core: response for unknown request %s", ev.RID)
			}
			// rid enters the frontier, evicting its parents.
			for _, p := range g.Parents[idx] {
				delete(frontier, p)
			}
			frontier[int32(idx)] = struct{}{}
		}
	}
	return g, nil
}

// CreateTimePrecedenceGraphQuadratic is the reference implementation
// used for differential testing and as the "prior work [14]" baseline in
// the ablation benchmark: it compares every pair of requests and adds an
// edge r1->r2 whenever r1 <Tr r2 and no intermediate request separates
// them (a transitive reduction computed pairwise).
func CreateTimePrecedenceGraphQuadratic(tr *trace.Trace) *TimeGraph {
	g := &TimeGraph{Index: make(map[string]int)}
	type span struct{ req, resp int64 }
	spans := make(map[string]*span)
	var order []string
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Kind == trace.Request {
			spans[ev.RID] = &span{req: ev.Time, resp: -1}
			order = append(order, ev.RID)
		} else if s, ok := spans[ev.RID]; ok {
			s.resp = ev.Time
		}
	}
	for _, rid := range order {
		idx := int32(len(g.RIDs))
		g.Index[rid] = int(idx)
		g.RIDs = append(g.RIDs, rid)
		g.Edges = append(g.Edges, nil)
		g.Parents = append(g.Parents, nil)
	}
	precedes := func(a, b string) bool {
		sa, sb := spans[a], spans[b]
		return sa.resp >= 0 && sa.resp < sb.req
	}
	for _, a := range order {
		for _, b := range order {
			if a == b || !precedes(a, b) {
				continue
			}
			// Transitive reduction: skip if some c separates a and b.
			reduced := false
			for _, c := range order {
				if c != a && c != b && precedes(a, c) && precedes(c, b) {
					reduced = true
					break
				}
			}
			if !reduced {
				ai, bi := int32(g.Index[a]), int32(g.Index[b])
				g.Edges[ai] = append(g.Edges[ai], bi)
				g.Parents[bi] = append(g.Parents[bi], ai)
				g.EdgeCount++
			}
		}
	}
	return g
}
