package main

import (
	"context"
	"path/filepath"
	"testing"

	"orochi/internal/epoch"
	"orochi/internal/workload"
)

var tinyWiki = &benchWorkload{
	name: "tiny-wiki",
	gen: func(seed int64) *workload.Workload {
		return workload.Wiki(workload.WikiParams{Requests: 700, Pages: 20, ZipfS: 0.53, Seed: seed})
	},
}

// TestRoundEndToEnd runs one small traced round through the whole
// pipeline and checks the gate's accounting, the per-layer metric set
// and the span tree.
func TestRoundEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "round")
	tr := newTracer(true)
	r, err := runRound(context.Background(), tinyWiki, 3, dir, 2, tr, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("gate failed %d of %d: %v", r.failed, r.attempted, r.reasons)
	}
	// requests + "every sealed epoch reached" + one verdict per epoch +
	// the fleet digest + the tamper control.
	if want := r.requests + 1 + r.epochs + 1 + 1; r.attempted != want {
		t.Errorf("attempted %d operations, want %d", r.attempted, want)
	}
	if r.requests != 700 || len(r.latencies) != 700 || r.epochs < 1 {
		t.Errorf("requests %d, latencies %d, epochs %d", r.requests, len(r.latencies), r.epochs)
	}
	for name, d := range map[string]float64{
		"setup": r.setup.Seconds(), "serve": r.serve.Seconds(), "audit": r.audit.Seconds(), "fleet": r.fleet.Seconds(),
		"stored": float64(r.storedBytes), "wire": float64(r.wireBytes),
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want > 0", name, d)
		}
	}
	if r.durable < r.serve {
		t.Errorf("durable %v is shorter than serve %v", r.durable, r.serve)
	}
	for _, def := range perLayer {
		if _, ok := r.layers[def.Name]; !ok {
			t.Errorf("traced round has no %s", def.Name)
		}
	}
	if len(r.layers) != len(perLayer) {
		t.Errorf("traced round has %d per-layer metrics, the table lists %d", len(r.layers), len(perLayer))
	}
	if got := r.layers["server.requests"]; got != 700 {
		t.Errorf("server.requests = %v, want 700", got)
	}

	handles := 0
	for i, s := range tr.spans {
		if s.Parent >= i || s.End < s.Start {
			t.Fatalf("span %d %+v: parent must precede it and end must not precede start", i, s)
		}
		if s.Name == "server.handle" {
			handles++
			if tr.spans[s.Parent].Name != "bench.serve" || s.ID == "" {
				t.Errorf("handle span %+v: want a request id and bench.serve as parent", s)
			}
		}
	}
	if handles != 700 {
		t.Errorf("%d server.handle spans, want 700", handles)
	}
}

// TestTamperControlNeedsTheFlip shows the gate's control is live: the
// sealed epoch as served is accepted — so a run that skipped the flip
// would count a failed operation and exit non-zero — and the same
// epoch with one flipped response bit is rejected.
func TestTamperControlNeedsTheFlip(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "round")
	if _, err := runRound(ctx, tinyWiki, 4, dir, 2, newTracer(false), false); err != nil {
		t.Fatal(err)
	}
	sealed, err := epoch.ListSealed(filepath.Join(dir, "chain"))
	if err != nil || len(sealed) == 0 {
		t.Fatalf("sealed epochs: %v, %v", sealed, err)
	}
	l, err := epoch.Load(sealed[0])
	if err != nil {
		t.Fatal(err)
	}
	prog := tinyWiki.gen(4).App.Compile()
	if rejected, err := auditRejects(ctx, prog, l); err != nil || rejected {
		t.Fatalf("untampered epoch: rejected=%v err=%v, want accepted", rejected, err)
	}
	if !flipResponseBit(l.Trace) {
		t.Fatal("no response to flip")
	}
	if rejected, err := auditRejects(ctx, prog, l); err != nil || !rejected {
		t.Fatalf("tampered epoch: rejected=%v err=%v, want rejected", rejected, err)
	}
}
