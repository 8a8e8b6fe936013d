package lang

import (
	"errors"
	"sort"
	"strings"
)

// Mode selects how the interpreter executes.
type Mode uint8

const (
	// ModePlain is the unmodified baseline runtime: no digests, no
	// recording, native non-determinism. It is the "unmodified PHP"
	// baseline of Fig. 10 and the legacy-serving baseline of §5.1.
	ModePlain Mode = iota
	// ModeRecord is the server runtime (§4.3): it maintains the
	// control-flow digest and issues state operations through a
	// recording Bridge.
	ModeRecord
	// ModeSIMD is the verifier runtime (acc-PHP, §4.3): it executes a
	// whole control-flow group at once over multivalues, detects
	// divergence, and issues per-lane state operations through a
	// checking Bridge.
	ModeSIMD
)

// ErrDivergence is returned when re-execution of a control-flow group
// diverges: the (untrusted) grouping report placed requests with
// different control flow in one group, so the audit must reject
// (Fig. 3 line 34).
var ErrDivergence = errors.New("lang: control flow diverged within group")

// FallbackError signals a multivalue mixture the SIMD runtime does not
// support; the verifier retries by re-executing the group's requests
// sequentially (§4.3, §4.7).
type FallbackError struct{ Reason string }

func (e *FallbackError) Error() string {
	return "lang: unsupported multivalue mixture: " + e.Reason
}

// RequestInput is the per-request input materialized as superglobals.
type RequestInput struct {
	Get    map[string]string
	Post   map[string]string
	Cookie map[string]string
}

// Config configures one execution (single request, or a whole group in
// ModeSIMD).
type Config struct {
	Mode   Mode
	Script string
	// RIDs and Inputs are per-lane; lanes = len(RIDs). ModePlain and
	// ModeRecord require exactly one lane.
	RIDs   []string
	Inputs []RequestInput
	Bridge Bridge
	// MaxSteps bounds executed statements (0 = default of 100M).
	MaxSteps int64
	// CollectStats enables univalent/multivalent instruction counting
	// (Fig. 10/11 accounting).
	CollectStats bool
}

// Result is the outcome of one execution.
type Result struct {
	// OpCount is the number of state operations issued (per request in
	// single-lane modes; the shared group count in ModeSIMD).
	OpCount int
	// Digest is the control-flow tag (ModeRecord only).
	Digest uint64
	// InstrUni and InstrMulti count instructions executed univalently /
	// multivalently (CollectStats only).
	InstrUni   int64
	InstrMulti int64
	// BuiltinLaneCalls counts the lanes of pure builtin calls on
	// multivalues, and BuiltinRuns the builtin runs they took: a lane
	// whose arguments are identical to an earlier lane's reuses its
	// outcome (CollectStats only).
	BuiltinLaneCalls, BuiltinRuns int64
	// Steps counts executed statements.
	Steps int64

	out    *output
	outMat []string
}

// Output returns lane i's produced output.
func (r *Result) Output(i int) string {
	return r.Outputs()[i]
}

// Outputs materializes all per-lane outputs (cached).
func (r *Result) Outputs() []string {
	if r.outMat == nil {
		r.outMat = r.out.results()
	}
	return r.outMat
}

// OutputEqual reports whether lane i's output equals want. It walks the
// output segments without materializing the lane's string, so comparing
// a whole group against the trace costs one pass over shared bytes plus
// the per-lane distinct bytes (§5.2).
func (r *Result) OutputEqual(i int, want string) bool {
	return r.out.laneEqual(i, want)
}

const defaultMaxSteps = 100_000_000

// buildSuperglobals materializes $_GET/$_POST/$_COOKIE. With multiple
// lanes each cell is a multivalue over the lanes (missing keys become
// null, matching isset() semantics).
func buildSuperglobals(inputs []RequestInput) map[string]*Array {
	build := func(get func(RequestInput) map[string]string) *Array {
		keySet := map[string]bool{}
		for _, in := range inputs {
			for k := range get(in) {
				keySet[k] = true
			}
		}
		keys := make([]string, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		arr := NewArray()
		for _, k := range keys {
			vals := make([]Value, len(inputs))
			for i, in := range inputs {
				if v, ok := get(in)[k]; ok {
					vals[i] = v
				} else {
					vals[i] = nil
				}
			}
			nk, _ := NormalizeKey(Value(k))
			arr.Set(nk, NewMulti(vals))
		}
		return arr
	}
	return map[string]*Array{
		"_GET":    build(func(in RequestInput) map[string]string { return in.Get }),
		"_POST":   build(func(in RequestInput) map[string]string { return in.Post }),
		"_COOKIE": build(func(in RequestInput) map[string]string { return in.Cookie }),
	}
}

// exec is the interpreter state for one Run.
type exec struct {
	prog   *Program
	mode   Mode
	lanes  int
	rids   []string
	bridge Bridge
	digest *Digest
	out    *output
	super  map[string]*Array
	opnum  int

	// eager is set by the reference engine, which copies arrays eagerly
	// (deepCopy) where the production engine shares them (CloneValue).
	eager bool
	// grow holds the buffers the production engine grows strings in
	// (str.go); the reference engine concatenates by copying.
	grow *growBufs

	steps      int64
	maxSteps   int64
	stats      bool
	instrUni   int64
	instrMulti int64
	callDepth  int

	// builtinLaneCalls and builtinRuns count the lanes of builtin calls
	// on multivalues and the builtin runs they took (CollectStats only).
	builtinLaneCalls int64
	builtinRuns      int64
	// lmemo finds lanes of a builtin call with identical arguments
	// (memo.go).
	lmemo *laneMemo

	// Compiled-engine state: the global frame as resolved slots plus a
	// presence bitmap (present-with-nil and absent differ only for
	// isset, whose index expressions must or must not evaluate).
	gslots []Value
	gset   []bool
	// Hot-path free lists; exec is single-goroutine so these need no
	// locking. See pool.go.
	laneSlices [][]Value
	frames     []*cframe
	// args is the argument stack of the compiled engine's builtin
	// calls (withArgs).
	args []Value
}

// copyValue is PHP's by-value copy as this run's engine implements it.
func (ex *exec) copyValue(v Value) Value {
	if ex.eager {
		return deepCopy(v)
	}
	return CloneValue(v)
}

func (ex *exec) countInstr(multi bool) {
	if !ex.stats {
		return
	}
	if multi {
		ex.instrMulti++
	} else {
		ex.instrUni++
	}
}

// countBuiltin counts one lane of a builtin call on a multivalue, and
// the builtin run the lane took when ran is set.
func (ex *exec) countBuiltin(ran bool) {
	if !ex.stats {
		return
	}
	ex.builtinLaneCalls++
	if ran {
		ex.builtinRuns++
	}
}

func (ex *exec) branch(site Site, direction int) {
	if ex.digest != nil {
		ex.digest.Branch(site, direction)
	}
}

// ctrl is the statement-level control signal.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// condDirection evaluates a branch condition to a single direction,
// handling multivalues: if truthiness differs across lanes the group has
// diverged.
func (ex *exec) condDirection(v Value) (bool, error) {
	m, ok := v.(*Multi)
	if !ok {
		ex.countInstr(false)
		return ToBool(v), nil
	}
	ex.countInstr(true)
	first := ToBool(m.V[0])
	for _, lv := range m.V[1:] {
		if ToBool(lv) != first {
			return false, ErrDivergence
		}
	}
	return first, nil
}

// foreachLanes materializes each lane of a multivalue foreach subject
// (already copied, so nothing writes the lanes during the loop) and
// checks that every lane iterates the same number of times. A non-array
// lane is a per-lane fault, merged under the error-group rule: every
// lane faulting identically is a shared group fault, anything mixed
// diverged. Shared by both engines.
func (ex *exec) foreachLanes(subj *Multi, line int) ([]*Array, int, error) {
	arrs := make([]*Array, ex.lanes)
	n := -1
	_, err := ex.forLanes(func(i int) (Value, error) {
		a, ok := MaterializeLane(subj.V[i], i).(*Array)
		if !ok {
			return nil, &RuntimeError{Msg: "foreach over non-array", Line: line}
		}
		if n == -1 {
			n = a.Len()
		} else if a.Len() != n {
			// Different iteration counts = control-flow divergence.
			return nil, ErrDivergence
		}
		arrs[i] = a
		return nil, nil
	})
	return arrs, n, err
}

// foreachLaneElems returns the per-lane key and value of iteration it.
func (ex *exec) foreachLaneElems(arrs []*Array, it int) (keys, vals []Value) {
	keys = make([]Value, len(arrs))
	vals = make([]Value, len(arrs))
	for i, a := range arrs {
		e := a.ents[it]
		keys[i] = e.k.Value()
		vals[i] = ex.copyValue(e.v)
	}
	return keys, vals
}

// looseEqDirection compares possibly-multivalues for switch matching; all
// lanes must agree on the verdict or the group diverged.
func (ex *exec) looseEqDirection(a, b Value) (bool, error) {
	if !IsMulti(a) && !IsMulti(b) {
		return LooseEqual(a, b), nil
	}
	first := LooseEqual(MaterializeLane(a, 0), MaterializeLane(b, 0))
	for i := 1; i < ex.lanes; i++ {
		if LooseEqual(MaterializeLane(a, i), MaterializeLane(b, i)) != first {
			return false, ErrDivergence
		}
	}
	return first, nil
}

// echo writes v to every lane's output. A multivalue writes per lane,
// a segmented string its parts, each shared part once. No lane's output
// may outgrow the string budget: the canonical string fault if every
// lane would, divergence if only some would.
func (ex *exec) echo(v Value, line int) error {
	o := ex.out
	switch x := v.(type) {
	case *Multi:
		ex.countInstr(true)
		p := strPart{lanes: make([]string, len(x.V))}
		for i := range x.V {
			p.lanes[i] = ToString(MaterializeLane(x.V[i], i))
		}
		if err := o.budget(func(i int) int { return len(p.lanes[i]) }, line); err != nil {
			return err
		}
		o.writePart(p)
	case *segStr:
		ex.countInstr(true)
		if err := o.budget(x.len, line); err != nil {
			return err
		}
		for k := 0; k <= x.n; k++ {
			o.writePart(x.part(k))
		}
	default:
		ex.countInstr(false)
		s := ToString(v)
		if err := o.budget(func(int) int { return len(s) }, line); err != nil {
			return err
		}
		o.writeAll(s)
	}
	return nil
}

// output is a segmented output buffer: runs of univalent echoes append
// to a single shared segment regardless of the group size, and only
// lane-specific echoes add per-lane segments. Shared bytes are thus
// written (and stored) once per group — the output-side analogue of
// multivalue collapse, and a large part of the §5.2 acceleration for
// templated pages whose chrome is identical across requests.
type output struct {
	lanes int
	segs  []strPart
	// cur accumulates the open shared segment.
	cur strings.Builder
	// shared counts the bytes every lane holds, lane[i] the bytes only
	// lane i holds.
	shared int
	lane   []int
}

func newOutput(lanes int) *output {
	return &output{lanes: lanes}
}

// budget checks that writing add(i) more bytes to each lane i keeps
// every lane's output within the string budget.
func (o *output) budget(add func(i int) int, line int) error {
	over := 0
	for i := 0; i < o.lanes; i++ {
		if o.shared+o.laneBytes(i)+add(i) > maxStringBytes {
			over++
		}
	}
	return laneFault(over, o.lanes, line)
}

func (o *output) writeAll(s string) {
	o.cur.WriteString(s)
	o.shared += len(s)
}

// writePart appends part p: a shared part to the open shared segment, a
// per-lane part as a segment of its own, kept without a copy because a
// part's strings never change.
func (o *output) writePart(p strPart) {
	if p.lanes == nil {
		o.writeAll(p.shared)
		return
	}
	o.flush()
	if o.lane == nil {
		o.lane = make([]int, o.lanes)
	}
	o.segs = append(o.segs, p)
	for i, l := range p.lanes {
		o.lane[i] += len(l)
	}
}

// flush closes the open shared segment.
func (o *output) flush() {
	if o.cur.Len() > 0 {
		o.segs = append(o.segs, strPart{shared: o.cur.String()})
		o.cur.Reset()
	}
}

// results materializes the per-lane outputs.
func (o *output) results() []string {
	o.flush()
	out := make([]string, o.lanes)
	for i := range out {
		var b strings.Builder
		b.Grow(o.shared + o.laneBytes(i))
		for _, seg := range o.segs {
			b.WriteString(seg.lane(i))
		}
		out[i] = b.String()
	}
	return out
}

// laneBytes is the number of bytes only lane i holds.
func (o *output) laneBytes(i int) int {
	if o.lane == nil {
		return 0
	}
	return o.lane[i]
}

// laneEqual reports whether lane i's output equals want, walking the
// segments without materializing the lane's string.
func (o *output) laneEqual(i int, want string) bool {
	o.flush()
	off := 0
	for _, seg := range o.segs {
		part := seg.lane(i)
		if off+len(part) > len(want) || want[off:off+len(part)] != part {
			return false
		}
		off += len(part)
	}
	return off == len(want)
}
