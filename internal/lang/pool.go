package lang

// Hot-path free lists. An exec serves exactly one request (or one SIMD
// group) on one goroutine, so the pools need no locking and die with
// the exec — nothing here outlives a Run.

// getLaneSlice returns a []Value of length ex.lanes for forLanes to
// fill. Cells may hold stale values from a previous faulted merge;
// every read path writes each cell before NewMulti sees the slice.
func (ex *exec) getLaneSlice() []Value {
	if n := len(ex.laneSlices); n > 0 {
		s := ex.laneSlices[n-1]
		ex.laneSlices = ex.laneSlices[:n-1]
		return s
	}
	return make([]Value, ex.lanes)
}

// putLaneSlice recycles a lane slice that no merged value retained.
func (ex *exec) putLaneSlice(s []Value) {
	if len(s) != ex.lanes {
		return
	}
	ex.laneSlices = append(ex.laneSlices, s)
}

// getFrame returns a zeroed activation record sized for cf.
func (ex *exec) getFrame(cf *cfunc) *cframe {
	n := cf.info.nlocals
	var fr *cframe
	if m := len(ex.frames); m > 0 {
		fr = ex.frames[m-1]
		ex.frames = ex.frames[:m-1]
	} else {
		fr = &cframe{ex: ex}
	}
	if cap(fr.locals) < n {
		fr.locals = make([]Value, n)
		fr.set = make([]bool, n)
	} else {
		fr.locals = fr.locals[:n]
		fr.set = fr.set[:n]
		for i := range fr.locals {
			fr.locals[i] = nil
			fr.set[i] = false
		}
	}
	if cf.hasGlobal {
		if cap(fr.gflags) < n {
			fr.gflags = make([]bool, n)
		} else {
			fr.gflags = fr.gflags[:n]
			for i := range fr.gflags {
				fr.gflags[i] = false
			}
		}
	}
	return fr
}

// putFrame recycles fr. The caller must be done with the frame's
// locals; the returned value of a call is copied (shared) before the
// frame is released.
func (ex *exec) putFrame(fr *cframe) {
	ex.frames = append(ex.frames, fr)
}
