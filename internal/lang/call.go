package lang

import (
	"fmt"
)

// anyMulti reports whether some value holds a multivalue, at any depth:
// the split decision of builtin and state-op calls. With one lane no
// multivalue exists (NewMulti collapses every one-lane vector), so the
// walk is skipped.
func (ex *exec) anyMulti(vals ...Value) bool {
	if ex.lanes == 1 {
		return false
	}
	for _, v := range vals {
		if DeepContainsMulti(v) {
			return true
		}
	}
	return false
}

// invokeBuiltin runs a pure builtin, splitting per-lane when any argument
// contains a multivalue (§4.3 "Built-in functions"): the runtime splits
// the multivalue arguments into univalues, copies container arguments,
// executes the builtin once per lane, and merges the results back into a
// multivalue.
func (ex *exec) invokeBuiltin(name string, fn builtinFn, args []Value, line int) (Value, error) {
	if !ex.anyMulti(args...) {
		ex.countInstr(false)
		return ex.callBudgeted(fn, args, line)
	}
	ex.countInstr(true)
	return ex.forLanes(func(i int) (Value, error) {
		laneArgs := make([]Value, len(args))
		for j, a := range args {
			laneArgs[j] = ex.copyValue(MaterializeLane(a, i))
		}
		return ex.callBudgeted(fn, laneArgs, line)
	})
}

// callBudgeted runs a builtin and holds whatever string it returns to
// the string budget, so one that grows its input (json_encode,
// htmlspecialchars, ...) cannot be iterated into an exponential; the
// few that can overshoot in a single call check before they allocate.
func (ex *exec) callBudgeted(fn builtinFn, args []Value, line int) (Value, error) {
	v, err := fn(ex, args, line)
	if s, ok := v.(string); ok && err == nil {
		err = stringBudget(len(s), line)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// refBuiltinApply is the engine-independent core of a by-reference
// builtin call: the current target value in, (result, new target value)
// out. Both engines route through it so the per-lane copy/merge rules
// stay identical. The builtin writes the array refTarget hands it; the
// caller stores the new target back.
func (ex *exec) refBuiltinApply(name string, fn refBuiltinFn, cur Value, rest []Value, line int) (Value, Value, error) {
	// Copy the arguments first: array_push($a, $a) must push the array
	// $a held before the push.
	for j, a := range rest {
		rest[j] = ex.copyValue(a)
	}
	if !ex.anyMulti(cur) && !ex.anyMulti(rest...) {
		ex.countInstr(false)
		arr, err := refTarget(name, cur, line)
		if err != nil {
			return nil, nil, err
		}
		result, err := fn(ex, arr, rest, line)
		if err != nil {
			return nil, nil, err
		}
		return result, arr, nil
	}
	ex.countInstr(true)
	tgtVals := make([]Value, ex.lanes)
	result, err := ex.forLanes(func(i int) (Value, error) {
		arr, err := refTarget(name, ex.copyValue(MaterializeLane(cur, i)), line)
		if err != nil {
			return nil, err
		}
		laneRest := make([]Value, len(rest))
		for j, a := range rest {
			laneRest[j] = ex.copyValue(MaterializeLane(a, i))
		}
		r, err := fn(ex, arr, laneRest, line)
		if err != nil {
			return nil, err
		}
		tgtVals[i] = arr
		return r, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return result, NewMulti(tgtVals), nil
}

// refTarget is the array a by-reference builtin writes for target value
// cur: cur's array taken for writing, or a new one for null.
func refTarget(name string, cur Value, line int) (*Array, error) {
	switch c := cur.(type) {
	case *Array:
		return c.Own(), nil
	case nil:
		return NewArray(), nil
	default:
		return nil, &RuntimeError{Msg: name + "() expects an array", Line: line}
	}
}

// stateOpCore is the engine-independent core of a state-op call:
// arguments already evaluated, everything from the bridge check to the
// per-lane issue shared by both engines.
func (ex *exec) stateOpCore(name string, args []Value, line int) (Value, error) {
	if ex.bridge == nil {
		return nil, &RuntimeError{Msg: "no shared-state bridge configured", Line: line}
	}
	multi := ex.anyMulti(args...)
	ex.countInstr(multi)
	// Validate the call shape BEFORE consuming an opnum: a call that
	// faults on its arguments never reaches a shared object, so it must
	// not count toward report M — the server records no log entry for
	// it, and the verifier's re-execution must agree on the count.
	if err := ex.checkStateOpArgs(name, args, line); err != nil {
		return nil, err
	}
	opnum := ex.opnum
	ex.opnum++
	return ex.forLanes(func(i int) (Value, error) {
		return ex.stateOpLane(name, ex.rids[i], opnum, laneArgs(args, multi, i), line)
	})
}

// checkStateOpArgs rejects malformed state-op calls (arity, operand
// shape) as request-level faults, per lane where the shape is
// lane-dependent. It runs before the opnum is allocated.
func (ex *exec) checkStateOpArgs(name string, args []Value, line int) error {
	argErr := func(want string) error {
		return &RuntimeError{Msg: fmt.Sprintf("%s() expects %s", name, want), Line: line}
	}
	switch name {
	case "session_get", "apc_get", "db_query", "db_exec":
		if len(args) != 1 {
			return argErr("1 argument")
		}
	case "session_set", "apc_set":
		if len(args) != 2 {
			return argErr("2 arguments")
		}
	case "db_transaction":
		if len(args) != 1 {
			return argErr("an array of statements")
		}
		// Lane (not MaterializeLane): the shape check needs only the
		// top-level type and length, so skip the deep materialization —
		// the issue path materializes each lane once anyway.
		_, err := ex.forLanes(func(i int) (Value, error) {
			arr, ok := Lane(args[0], i).(*Array)
			if !ok || arr.Len() == 0 {
				return nil, argErr("a non-empty array of statements")
			}
			return nil, nil
		})
		return err
	default:
		return &RuntimeError{Msg: "unknown state op " + name, Line: line}
	}
	return nil
}

// stateOpLane issues one lane's operation; the call shape was already
// validated by checkStateOpArgs.
func (ex *exec) stateOpLane(name, rid string, opnum int, args []Value, line int) (Value, error) {
	switch name {
	case "session_get":
		return ex.bridge.RegisterRead(rid, opnum, ToString(args[0]))
	case "session_set":
		if err := ex.bridge.RegisterWrite(rid, opnum, ToString(args[0]), args[1]); err != nil {
			return nil, err
		}
		return true, nil
	case "apc_get":
		return ex.bridge.KvGet(rid, opnum, ToString(args[0]))
	case "apc_set":
		if err := ex.bridge.KvSet(rid, opnum, ToString(args[0]), args[1]); err != nil {
			return nil, err
		}
		return true, nil
	case "db_query", "db_exec":
		res, err := ex.bridge.DBOp(rid, opnum, []string{ToString(args[0])})
		if err != nil {
			return nil, err
		}
		// Unwrap the single statement's result.
		if arr, ok := res.(*Array); ok && arr.Len() == 1 {
			v, _ := arr.Get(Key{I: 0, IsInt: true})
			return v, nil
		}
		return res, nil
	case "db_transaction":
		arr, ok := args[0].(*Array)
		if !ok {
			// checkStateOpArgs validated the lane shapes already; keep the
			// graceful fault in case the two resolutions ever disagree.
			return nil, &RuntimeError{Msg: "db_transaction() expects a non-empty array of statements", Line: line}
		}
		stmts := make([]string, 0, arr.Len())
		for _, v := range arr.Values() {
			stmts = append(stmts, ToString(v))
		}
		return ex.bridge.DBOp(rid, opnum, stmts)
	default:
		return nil, &RuntimeError{Msg: "unknown state op " + name, Line: line}
	}
}

// nonDetCore is the engine-independent core of a nondet builtin call.
func (ex *exec) nonDetCore(name string, args []Value) (Value, error) {
	multi := ex.anyMulti(args...)
	ex.countInstr(multi)
	return ex.forLanes(func(i int) (Value, error) {
		la := laneArgs(args, multi, i)
		if ex.bridge == nil {
			return nativeNonDet(name, la)
		}
		return ex.bridge.NonDet(ex.rids[i], name, la)
	})
}

// laneArgs is lane i's view of a call's arguments: the arguments
// themselves when none holds a multivalue (every lane sees them as
// they are), else a fresh slice of each one's lane.
func laneArgs(args []Value, multi bool, i int) []Value {
	if !multi {
		return args
	}
	out := make([]Value, len(args))
	for j, a := range args {
		out[j] = MaterializeLane(a, i)
	}
	return out
}

// stateOps names the builtins that operate on shared objects.
var stateOps = map[string]bool{
	"session_get":    true,
	"session_set":    true,
	"apc_get":        true,
	"apc_set":        true,
	"db_query":       true,
	"db_exec":        true,
	"db_transaction": true,
}

// nondetBuiltins names the non-deterministic builtins (§4.6).
var nondetBuiltins = map[string]bool{
	"time":      true,
	"microtime": true,
	"mt_rand":   true,
	"rand":      true,
	"uniqid":    true,
	"getmypid":  true,
}
