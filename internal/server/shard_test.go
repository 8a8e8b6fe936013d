package server

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"orochi/internal/lang"
	"orochi/internal/reports"
	"orochi/internal/trace"
)

// TestSwapRecorderRacingServeAll stress-tests the atomic recorder
// pointer under -race: recorders are swapped continuously while
// requests are in flight. Each request loads the recorder pointer once,
// so all of a request's records — its object ops, DB sub-log, group
// membership, op count and nondet records — must land whole in exactly
// one recorder bundle, never split across two.
//
// (The epoch pipeline only ever swaps at balanced points, where this
// holds trivially; the test deliberately swaps at unbalanced moments to
// pin the stronger per-request atomicity.)
func TestSwapRecorderRacingServeAll(t *testing.T) {
	srv := newTestServer(t, true)
	var inputs []trace.Input
	const n = 200
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			inputs = append(inputs, trace.Input{Script: "add", Get: map[string]string{"v": fmt.Sprint(i)}})
		case 1:
			inputs = append(inputs, trace.Input{Script: "count"})
		default:
			inputs = append(inputs, trace.Input{Script: "echo", Get: map[string]string{"m": fmt.Sprint(i)}})
		}
	}

	var recs []*reports.Recorder
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rec := srv.SwapRecorder(); rec != nil {
				recs = append(recs, rec)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	srv.ServeAllContext(context.Background(), inputs, 8)
	close(stop)
	swapper.Wait()
	if rec := srv.SwapRecorder(); rec != nil {
		recs = append(recs, rec)
	}
	if len(recs) < 2 {
		t.Fatalf("only %d recorders collected; swap loop did not race serving", len(recs))
	}

	// Finalize only after serving has fully drained: a request that
	// loaded a recorder before a swap legitimately keeps appending to it
	// until the request completes.
	seen := make(map[string]int) // rid -> bundle index holding its op count
	for i, rec := range recs {
		rep := rec.Finalize()
		for rid := range rep.OpCounts {
			if prev, dup := seen[rid]; dup {
				t.Fatalf("request %s recorded in bundles %d and %d", rid, prev, i)
			}
			seen[rid] = i
		}
		// Every record kind in this bundle must belong to a request whose
		// op count is in this same bundle — no record splits bundles.
		for li, log := range rep.OpLogs {
			for _, e := range log {
				if owner, ok := seen[e.RID]; !ok || owner != i {
					t.Fatalf("op for %s in %v (bundle %d) split from its op count", e.RID, rep.Objects[li], i)
				}
			}
		}
		for tag, rids := range rep.Groups {
			for _, rid := range rids {
				if owner, ok := seen[rid]; !ok || owner != i {
					t.Fatalf("group %x member %s (bundle %d) split from its op count", tag, rid, i)
				}
			}
		}
		for rid := range rep.NonDet {
			if owner, ok := seen[rid]; !ok || owner != i {
				t.Fatalf("nondet for %s (bundle %d) split from its op count", rid, i)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("bundles cover %d requests, want %d", len(seen), n)
	}
}

// TestShardsOptionDeterministicReports: with a fixed clock, seed and
// sequential serving, the reports a Shards=1 server and a Shards=N
// server record encode to identical bytes (the shard count is
// invisible in the artifact).
func TestShardsOptionDeterministicReports(t *testing.T) {
	fixed := time.Unix(1700000000, 0)
	prog, err := lang.Compile(echoApp)
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) []byte {
		srv := New(prog, Options{
			Record: true, Shards: shards, RandSeed: 11,
			Clock: func() time.Time { return fixed },
		})
		if err := srv.Setup([]string{`CREATE TABLE kvs (v INT)`}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			switch i % 3 {
			case 0:
				srv.Handle(trace.Input{Script: "add", Get: map[string]string{"v": fmt.Sprint(i)}})
			case 1:
				srv.Handle(trace.Input{Script: "count"})
			default:
				srv.Handle(trace.Input{Script: "rows"})
			}
		}
		raw, err := srv.Reports().EncodeRaw()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	base := run(1)
	for _, shards := range []int{2, 8, 64} {
		if got := run(shards); !bytes.Equal(base, got) {
			t.Fatalf("Shards=%d reports differ from Shards=1 (%d vs %d bytes)", shards, len(base), len(got))
		}
	}
}
