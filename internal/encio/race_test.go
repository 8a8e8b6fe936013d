//go:build race

package encio

// raceEnabled reports a build with the race detector. Its
// instrumentation allocates on its own, so an allocation budget is
// checked only without it.
const raceEnabled = true
