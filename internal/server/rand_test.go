package server

import (
	"testing"
	"time"

	"orochi/internal/lang"
	"orochi/internal/trace"
)

// TestMtRandDrawsPinned pins the first draws of mt_rand and rand for a
// fixed RandSeed: building each request's source on its first draw must
// not change a single value.
func TestMtRandDrawsPinned(t *testing.T) {
	prog, err := lang.Compile(map[string]string{"r": `echo mt_rand(1, 1000000) . "," . rand() . "," . mt_rand(5, 10);`})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(prog, Options{Record: true, RandSeed: 42})
	for i, want := range []string{"981200,2027774818,10", "893355,1109570607,9", "910349,1197673467,9"} {
		if _, body := srv.Handle(trace.Input{Script: "r"}); body != want {
			t.Fatalf("request %d drew %q, want %q", i+1, body, want)
		}
	}
}

// TestNoRandSourceWithoutDraw checks that a request which draws no random
// number builds no source: it allocates the source and its generator (two
// allocations, ~5 KB) fewer than the same request with one mt_rand call
// in place of a time call. Under the race detector, whose instrumentation
// allocates, only the responses are checked.
func TestNoRandSourceWithoutDraw(t *testing.T) {
	prog, err := lang.Compile(map[string]string{
		"time": `$x = time(); echo "k";`,
		"rand": `$x = mt_rand(); echo "k";`,
	})
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Unix(1700000000, 0)
	newServer := func() *Server {
		return New(prog, Options{Record: true, RandSeed: 42, Clock: func() time.Time { return fixed }})
	}
	for _, script := range []string{"time", "rand"} {
		if _, body := newServer().Handle(trace.Input{Script: script}); body != "k" {
			t.Fatalf("%s: body %q, want %q", script, body, "k")
		}
	}
	if raceEnabled {
		return
	}
	allocs := func(script string) float64 {
		srv := newServer()
		return testing.AllocsPerRun(200, func() { srv.Handle(trace.Input{Script: script}) })
	}
	noDraw, draw := allocs("time"), allocs("rand")
	t.Logf("allocations per request: %v without a draw, %v with one", noDraw, draw)
	if draw-noDraw < 2 {
		t.Fatalf("a request without a draw allocates %v times, one with a draw %v: the source is built either way", noDraw, draw)
	}
}
