package lang

import "testing"

// UseReference makes Run execute under the tree-walking reference
// interpreter (ref true) or the production engine (ref false) until the
// next call or the end of t, so tests outside the package can serve and
// audit whole workloads under either. Tests that call it must not run
// in parallel: the switch is package-wide.
func UseReference(t testing.TB, ref bool) {
	prev := runHook
	t.Cleanup(func() { runHook = prev })
	runHook = nil
	if ref {
		runHook = runReference
	}
}
