package lang

// Session carries reusable execution scratch state across sequential
// Runs on one goroutine. The verifier's Phase-3 small-group batching
// packs many short SIMD groups onto one worker task; without a session
// each Run warms its frame and lane-slice free lists from nothing and
// throws them away. A Session keeps those pools alive between Runs:
// Config.Session hands it to the engine, which adopts the pooled
// buffers when the exec is built and releases them back when the run
// finishes (on every exit path, including request-level faults).
//
// Every adopted buffer is cleared or fully overwritten before its
// first read, so a session changes no observable behavior — outputs,
// digests, op counts, step counts, instruction counts, and fault
// renderings are bit-identical with and without one. Lane slices are
// width-dependent and are dropped (not reused) when consecutive runs
// differ in lane count.
//
// A Session must not be used by two concurrent Runs.
type Session struct {
	lanes      int
	laneSlices [][]Value
	gslots     []Value
	gset       []bool
	frames     []*cframe
}

// NewSession returns an empty session. Pools fill as runs release
// their scratch state into it.
func NewSession() *Session { return &Session{} }

// adopt moves the session's pooled state into ex. Pooled frames are
// re-pointed at the adopting exec; lane slices transfer only when the
// lane width matches (putLaneSlice would silently drop every recycle
// otherwise, and getLaneSlice must hand out exactly ex.lanes cells).
func (s *Session) adopt(ex *exec) {
	ex.ses = s
	if s.lanes == ex.lanes {
		ex.laneSlices = s.laneSlices
	}
	ex.frames = s.frames
	for _, fr := range ex.frames {
		fr.ex = ex
	}
	s.laneSlices, s.frames = nil, nil
}

// globalSlots installs the cleared global frame for a run that needs n
// resolved slots, reusing the session's arrays when they are large
// enough. Presence starts all-false, matching a fresh allocation:
// present-with-nil and absent differ for isset, so gset must be wiped,
// not just gslots.
func (ex *exec) globalSlots(n int) {
	if s := ex.ses; s != nil && cap(s.gslots) >= n && cap(s.gset) >= n {
		ex.gslots = s.gslots[:n]
		ex.gset = s.gset[:n]
		s.gslots, s.gset = nil, nil
		for i := range ex.gslots {
			ex.gslots[i] = nil
			ex.gset[i] = false
		}
		return
	}
	ex.gslots = make([]Value, n)
	ex.gset = make([]bool, n)
}

// releaseSession returns the exec's free lists to its session; no-op
// when the run has none. Engines defer this right after newExec so
// faulted runs recycle too.
func (ex *exec) releaseSession() {
	s := ex.ses
	if s == nil {
		return
	}
	s.lanes = ex.lanes
	s.laneSlices = ex.laneSlices
	s.frames = ex.frames
	if ex.gslots != nil {
		s.gslots, s.gset = ex.gslots, ex.gset
	}
	ex.ses = nil
}
