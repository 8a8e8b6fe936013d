package lang

import (
	"errors"
	"fmt"
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
	// Engine is the test seam for the reference engine: nil runs the
	// production engine (EngineCompiled); the differential tests set
	// EngineInterp to compare against it. Not a tuning option.
	Engine Engine
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
	// globals backs both the script's top-level scope and `global`
	// imports inside functions, as in PHP.
	globals map[string]Value
	opnum   int

	// eager is set by the reference engine, which copies arrays eagerly
	// (deepCopy) where the production engine shares them (CloneValue).
	eager bool

	steps      int64
	maxSteps   int64
	stats      bool
	instrUni   int64
	instrMulti int64
	callDepth  int

	// Compiled-engine state: the global frame as resolved slots plus a
	// presence bitmap (present-with-nil and absent differ only for
	// isset, whose index expressions must or must not evaluate).
	gslots []Value
	gset   []bool
	// Hot-path free lists; exec is single-goroutine so these need no
	// locking. See pool.go.
	laneSlices [][]Value
	frames     []*cframe
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

func (ex *exec) branch(site Site, direction int) {
	if ex.digest != nil {
		ex.digest.Branch(site, direction)
	}
}

// scope is a variable namespace (function frame or the global frame).
type scope struct {
	vars       map[string]Value
	globalRefs map[string]bool
	isGlobal   bool
	ex         *exec
}

func (sc *scope) get(name string) Value {
	if sg, ok := sc.ex.super[name]; ok {
		return sg
	}
	if !sc.isGlobal && sc.globalRefs[name] {
		return sc.ex.globals[name]
	}
	return sc.vars[name]
}

func (sc *scope) exists(name string) bool {
	if _, ok := sc.ex.super[name]; ok {
		return true
	}
	if !sc.isGlobal && sc.globalRefs[name] {
		_, ok := sc.ex.globals[name]
		return ok
	}
	_, ok := sc.vars[name]
	return ok
}

func (sc *scope) set(name string, v Value) {
	if _, ok := sc.ex.super[name]; ok {
		if arr, isArr := v.(*Array); isArr {
			sc.ex.super[name] = arr
		}
		return
	}
	if !sc.isGlobal && sc.globalRefs[name] {
		sc.ex.globals[name] = v
		return
	}
	sc.vars[name] = v
}

func (sc *scope) unset(name string) {
	if !sc.isGlobal && sc.globalRefs[name] {
		delete(sc.ex.globals, name)
		return
	}
	delete(sc.vars, name)
}

// ctrl is the statement-level control signal.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

func (ex *exec) execStmts(sc *scope, stmts []Stmt) (ctrl, Value, error) {
	for _, s := range stmts {
		c, v, err := ex.execStmt(sc, s)
		if err != nil {
			return ctrlNone, nil, err
		}
		if c != ctrlNone {
			return c, v, nil
		}
	}
	return ctrlNone, nil, nil
}

func (ex *exec) execStmt(sc *scope, s Stmt) (ctrl, Value, error) {
	ex.steps++
	if ex.steps > ex.maxSteps {
		return ctrlNone, nil, &RuntimeError{Msg: "step limit exceeded"}
	}
	switch st := s.(type) {
	case *ExprStmt:
		_, err := ex.evalExpr(sc, st.E)
		return ctrlNone, nil, err
	case *Assign:
		return ctrlNone, nil, ex.execAssign(sc, st)
	case *If:
		return ex.execIf(sc, st)
	case *While:
		return ex.execWhile(sc, st)
	case *For:
		return ex.execFor(sc, st)
	case *Foreach:
		return ex.execForeach(sc, st)
	case *Switch:
		return ex.execSwitch(sc, st)
	case *Return:
		var v Value
		if st.E != nil {
			var err error
			v, err = ex.evalExpr(sc, st.E)
			if err != nil {
				return ctrlNone, nil, err
			}
		}
		return ctrlReturn, v, nil
	case *Break:
		return ctrlBreak, nil, nil
	case *Continue:
		return ctrlContinue, nil, nil
	case *Echo:
		for _, a := range st.Args {
			v, err := ex.evalExpr(sc, a)
			if err != nil {
				return ctrlNone, nil, err
			}
			ex.echo(v)
		}
		return ctrlNone, nil, nil
	case *Global:
		if sc.globalRefs == nil {
			sc.globalRefs = make(map[string]bool)
		}
		for _, n := range st.Names {
			sc.globalRefs[n] = true
		}
		return ctrlNone, nil, nil
	case *Unset:
		for _, lv := range st.Targets {
			if err := ex.execUnset(sc, lv); err != nil {
				return ctrlNone, nil, err
			}
		}
		return ctrlNone, nil, nil
	default:
		return ctrlNone, nil, &RuntimeError{Msg: fmt.Sprintf("unknown statement %T", s)}
	}
}

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

func (ex *exec) execIf(sc *scope, st *If) (ctrl, Value, error) {
	for i, cond := range st.Conds {
		v, err := ex.evalExpr(sc, cond)
		if err != nil {
			return ctrlNone, nil, err
		}
		taken, err := ex.condDirection(v)
		if err != nil {
			return ctrlNone, nil, err
		}
		if taken {
			ex.branch(st.Site, i)
			return ex.execStmts(sc, st.Bodies[i])
		}
	}
	ex.branch(st.Site, len(st.Conds))
	if st.Else != nil {
		return ex.execStmts(sc, st.Else)
	}
	return ctrlNone, nil, nil
}

func (ex *exec) execWhile(sc *scope, st *While) (ctrl, Value, error) {
	for {
		v, err := ex.evalExpr(sc, st.Cond)
		if err != nil {
			return ctrlNone, nil, err
		}
		taken, err := ex.condDirection(v)
		if err != nil {
			return ctrlNone, nil, err
		}
		if !taken {
			ex.branch(st.Site, 0)
			return ctrlNone, nil, nil
		}
		ex.branch(st.Site, 1)
		c, rv, err := ex.execStmts(sc, st.Body)
		if err != nil {
			return ctrlNone, nil, err
		}
		switch c {
		case ctrlBreak:
			return ctrlNone, nil, nil
		case ctrlReturn:
			return ctrlReturn, rv, nil
		}
		ex.steps++
		if ex.steps > ex.maxSteps {
			return ctrlNone, nil, &RuntimeError{Msg: "step limit exceeded"}
		}
	}
}

func (ex *exec) execFor(sc *scope, st *For) (ctrl, Value, error) {
	if st.Init != nil {
		if _, _, err := ex.execStmt(sc, st.Init); err != nil {
			return ctrlNone, nil, err
		}
	}
	for {
		if st.Cond != nil {
			v, err := ex.evalExpr(sc, st.Cond)
			if err != nil {
				return ctrlNone, nil, err
			}
			taken, err := ex.condDirection(v)
			if err != nil {
				return ctrlNone, nil, err
			}
			if !taken {
				ex.branch(st.Site, 0)
				return ctrlNone, nil, nil
			}
		}
		ex.branch(st.Site, 1)
		c, rv, err := ex.execStmts(sc, st.Body)
		if err != nil {
			return ctrlNone, nil, err
		}
		switch c {
		case ctrlBreak:
			return ctrlNone, nil, nil
		case ctrlReturn:
			return ctrlReturn, rv, nil
		}
		if st.Post != nil {
			if _, _, err := ex.execStmt(sc, st.Post); err != nil {
				return ctrlNone, nil, err
			}
		} else if err := ex.step(); err != nil {
			// The post statement's entry is the per-iteration step;
			// without one, `for(;;){}` would never reach the step limit.
			return ctrlNone, nil, err
		}
	}
}

func (ex *exec) execForeach(sc *scope, st *Foreach) (ctrl, Value, error) {
	subject, err := ex.evalExpr(sc, st.Subject)
	if err != nil {
		return ctrlNone, nil, err
	}
	// PHP iterates over a copy of the subject: writes to the subject
	// variable in the body, at any depth, do not reach the loop.
	switch subj := ex.copyValue(subject).(type) {
	case *Array:
		for _, e := range subj.ents {
			ex.branch(st.Site, 1)
			if st.KeyVar != "" {
				sc.set(st.KeyVar, e.k.Value())
			}
			sc.set(st.ValVar, ex.copyValue(e.v))
			c, rv, err := ex.execStmts(sc, st.Body)
			if err != nil {
				return ctrlNone, nil, err
			}
			switch c {
			case ctrlBreak:
				ex.branch(st.Site, 0)
				return ctrlNone, nil, nil
			case ctrlReturn:
				return ctrlReturn, rv, nil
			}
		}
		ex.branch(st.Site, 0)
		return ctrlNone, nil, nil
	case *Multi:
		// The container itself is a multivalue: lock-step iteration over
		// per-lane materialized arrays.
		arrs, n, err := ex.foreachLanes(subj, st.Line)
		if err != nil {
			return ctrlNone, nil, err
		}
		for it := 0; it < n; it++ {
			ex.branch(st.Site, 1)
			keys, vals := ex.foreachLaneElems(arrs, it)
			if st.KeyVar != "" {
				sc.set(st.KeyVar, NewMulti(keys))
			}
			sc.set(st.ValVar, NewMulti(vals))
			c, rv, err := ex.execStmts(sc, st.Body)
			if err != nil {
				return ctrlNone, nil, err
			}
			switch c {
			case ctrlBreak:
				ex.branch(st.Site, 0)
				return ctrlNone, nil, nil
			case ctrlReturn:
				return ctrlReturn, rv, nil
			}
		}
		ex.branch(st.Site, 0)
		return ctrlNone, nil, nil
	case nil:
		ex.branch(st.Site, 0)
		return ctrlNone, nil, nil
	default:
		return ctrlNone, nil, &RuntimeError{Msg: "foreach over non-array", Line: st.Line}
	}
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

func (ex *exec) execSwitch(sc *scope, st *Switch) (ctrl, Value, error) {
	subject, err := ex.evalExpr(sc, st.Subject)
	if err != nil {
		return ctrlNone, nil, err
	}
	// Determine the arm per lane; divergence if lanes disagree.
	arm := -2 // -2 unset, -1 default
	for i, cs := range st.Cases {
		mv, err := ex.evalExpr(sc, cs.Match)
		if err != nil {
			return ctrlNone, nil, err
		}
		matched, err := ex.looseEqDirection(subject, mv)
		if err != nil {
			return ctrlNone, nil, err
		}
		if matched {
			arm = i
			break
		}
	}
	if arm == -2 {
		arm = -1
	}
	ex.branch(st.Site, arm+1)
	var body []Stmt
	if arm >= 0 {
		body = st.Cases[arm].Body
	} else {
		body = st.Default
	}
	c, rv, err := ex.execStmts(sc, body)
	if err != nil {
		return ctrlNone, nil, err
	}
	switch c {
	case ctrlBreak:
		return ctrlNone, nil, nil // break binds to switch, as in PHP
	case ctrlReturn:
		return ctrlReturn, rv, nil
	case ctrlContinue:
		return ctrlContinue, nil, nil
	}
	return ctrlNone, nil, nil
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

func (ex *exec) echo(v Value) {
	if m, ok := v.(*Multi); ok {
		ex.countInstr(true)
		for i := range m.V {
			ex.out.writeLane(i, ToString(MaterializeLane(m.V[i], i)))
		}
		return
	}
	ex.countInstr(false)
	ex.out.writeAll(ToString(v))
}

// output is a segmented output buffer: runs of univalent echoes append
// to a single shared segment regardless of the group size, and only
// lane-specific echoes open per-lane segments. Shared bytes are thus
// written (and stored) once per group — the output-side analogue of
// multivalue collapse, and a large part of the §5.2 acceleration for
// templated pages whose chrome is identical across requests.
type output struct {
	lanes int
	segs  []outSeg
	// cur accumulates the open segment.
	curShared strings.Builder
	curLanes  []strings.Builder
	inLanes   bool
}

// outSeg is either a shared string (perLane nil) or per-lane strings.
type outSeg struct {
	shared  string
	perLane []string
}

func newOutput(lanes int) *output {
	return &output{lanes: lanes}
}

func (o *output) writeAll(s string) {
	if o.inLanes {
		o.flushLanes()
	}
	o.curShared.WriteString(s)
}

func (o *output) writeLane(i int, s string) {
	if !o.inLanes {
		o.flushShared()
		if o.curLanes == nil {
			o.curLanes = make([]strings.Builder, o.lanes)
		}
		o.inLanes = true
	}
	o.curLanes[i].WriteString(s)
}

func (o *output) flushShared() {
	if o.curShared.Len() > 0 {
		o.segs = append(o.segs, outSeg{shared: o.curShared.String()})
		o.curShared.Reset()
	}
}

func (o *output) flushLanes() {
	parts := make([]string, o.lanes)
	for i := range o.curLanes {
		parts[i] = o.curLanes[i].String()
		o.curLanes[i].Reset()
	}
	o.segs = append(o.segs, outSeg{perLane: parts})
	o.inLanes = false
}

func (o *output) finish() {
	if o.inLanes {
		o.flushLanes()
	} else {
		o.flushShared()
	}
}

// results materializes the per-lane outputs.
func (o *output) results() []string {
	o.finish()
	var builders = make([]strings.Builder, o.lanes)
	for _, seg := range o.segs {
		if seg.perLane == nil {
			for i := range builders {
				builders[i].WriteString(seg.shared)
			}
			continue
		}
		for i := range builders {
			builders[i].WriteString(seg.perLane[i])
		}
	}
	out := make([]string, o.lanes)
	for i := range builders {
		out[i] = builders[i].String()
	}
	return out
}

// laneEqual reports whether lane i's output equals want, walking the
// segments without materializing the lane's string.
func (o *output) laneEqual(i int, want string) bool {
	o.finish()
	off := 0
	for _, seg := range o.segs {
		part := seg.shared
		if seg.perLane != nil {
			part = seg.perLane[i]
		}
		if off+len(part) > len(want) || want[off:off+len(part)] != part {
			return false
		}
		off += len(part)
	}
	return off == len(want)
}
