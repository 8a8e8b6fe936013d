package lang

import (
	"errors"
	"fmt"
)

// runHook, when set, replaces the production engine in Run. Only the
// package's tests set it (export_test.go), to serve and audit whole
// workloads under the tree-walking reference interpreter that lives
// beside them and compare every observable with the production run.
var runHook func(*Program, Config) (*Result, error)

// Run executes a script under cfg. The production engine lowers each
// script once into a tree of pre-bound Go closures with variable slots
// resolved at compile time, and pools hot-path allocations; the server
// records with it and the verifier re-executes with it.
//
// A request-level fault — the script raised a RuntimeError, or cfg
// names a script the program does not contain — returns BOTH a usable
// *Result and the error: the Result carries the control-flow digest
// folded with the fault site (ModeRecord), the count of state
// operations issued before the fault, and the partial output. The
// server records faulted requests into control-flow groups from this
// Result and serves RenderFault(err); the verifier re-executes those
// error groups and checks the rendering against the trace. Errors that
// are not request-level faults (divergence, multivalue fallback,
// bridge rejects, configuration mistakes) return a nil Result.
func Run(prog *Program, cfg Config) (*Result, error) {
	if runHook != nil {
		return runHook(prog, cfg)
	}
	cp, err := prog.compiled()
	if err != nil {
		return nil, err
	}
	ex, err := newExec(prog, cfg)
	if err != nil {
		return nil, err
	}
	cs, ok := cp.scripts[cfg.Script]
	if !ok {
		return unknownScriptResult(cfg, ex.lanes)
	}
	ex.gslots = make([]Value, cp.res.nglobals)
	ex.gset = make([]bool, cp.res.nglobals)
	fr := &cframe{ex: ex}
	_, _, rerr := runCStmts(fr, cs.body)
	return finishRun(ex, rerr)
}

// newExec validates cfg and builds the shared execution state. Both
// engines share it so validation faults and superglobal materialization
// cannot drift apart.
func newExec(prog *Program, cfg Config) (*exec, error) {
	lanes := len(cfg.RIDs)
	if lanes == 0 {
		return nil, &RuntimeError{Msg: "no lanes"}
	}
	if len(cfg.Inputs) != lanes {
		return nil, &RuntimeError{Msg: "inputs/rids length mismatch"}
	}
	if cfg.Mode != ModeSIMD && lanes != 1 {
		return nil, &RuntimeError{Msg: "multi-lane execution requires ModeSIMD"}
	}
	if cfg.Mode == ModeRecord && cfg.Bridge == nil {
		return nil, &RuntimeError{Msg: "ModeRecord requires a bridge"}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	ex := &exec{
		prog:     prog,
		mode:     cfg.Mode,
		lanes:    lanes,
		rids:     cfg.RIDs,
		bridge:   cfg.Bridge,
		out:      newOutput(lanes),
		opnum:    1,
		maxSteps: maxSteps,
		stats:    cfg.CollectStats,
	}
	if cfg.Mode == ModeRecord {
		ex.digest = NewDigest(cfg.Script)
	}
	ex.super = buildSuperglobals(cfg.Inputs)
	return ex, nil
}

// unknownScriptResult is the auditable fault result for a request that
// names a script the program does not contain. The script name is
// client-controlled input, so this is a request-level fault, not a
// caller bug: zero ops, empty output, digest of the fault.
func unknownScriptResult(cfg Config, lanes int) (*Result, error) {
	rt := &RuntimeError{Msg: fmt.Sprintf("unknown script %q", cfg.Script)}
	res := &Result{out: newOutput(lanes)}
	if cfg.Mode == ModeRecord {
		d := NewDigest(cfg.Script)
		d.Fault(rt.Line, rt.Msg)
		res.Digest = d.Sum()
	}
	return res, rt
}

// finishRun assembles the Result from a completed (or faulted) script
// body execution, folding request-level faults into the digest. Shared
// by both engines.
func finishRun(ex *exec, err error) (*Result, error) {
	res := &Result{
		OpCount:          ex.opnum - 1,
		InstrUni:         ex.instrUni,
		InstrMulti:       ex.instrMulti,
		BuiltinLaneCalls: ex.builtinLaneCalls,
		BuiltinRuns:      ex.builtinRuns,
		Steps:            ex.steps,
		out:              ex.out,
	}
	if err != nil {
		var rt *RuntimeError
		if !errors.As(err, &rt) {
			// A FallbackError in a single-lane execution cannot mean
			// "re-execute individually" — there is nothing to split. The
			// unsupported construct is deterministic, so it is an
			// auditable runtime fault: the server serves its canonical
			// rendering and the verifier's one-lane replay reproduces it.
			var fb *FallbackError
			if ex.lanes != 1 || !errors.As(err, &fb) {
				return nil, err
			}
			rt = &RuntimeError{Msg: "unsupported construct: " + fb.Reason}
		}
		if ex.digest != nil {
			ex.digest.Fault(rt.Line, rt.Msg)
			res.Digest = ex.digest.Sum()
		}
		return res, rt
	}
	if ex.digest != nil {
		res.Digest = ex.digest.Sum()
	}
	return res, nil
}
