package epoch

import (
	"context"
	"fmt"
	"testing"
	"time"

	"orochi/internal/server"
	"orochi/internal/workload"
)

// TestSameRunSameBytes: serving the same requests the same way seals the
// same bytes. Two sequential runs under a fixed clock and random seed
// give every epoch's segments, reports and initial state the same digest
// and chunk refs, and every checkpoint the same ref list — an artifact's
// identity is the hash of its encoding. (Whole manifests differ: each
// stamps the time it was sealed.)
func TestSameRunSameBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *workload.Workload
	}{
		{"wiki", workload.Wiki(workload.WikiParams{Requests: 120, Pages: 8, ZipfS: 0.53, Seed: 5})},
		{"hotcrp", workload.HotCRP(workload.DefaultHotCRPParams().Scale(40))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, second := servedPins(t, tc.w), servedPins(t, tc.w)
			if len(first) != len(second) {
				t.Fatalf("the runs pinned %d and %d artifacts", len(first), len(second))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("the same run sealed different bytes:\n first: %s\nsecond: %s", first[i], second[i])
				}
			}
		})
	}
}

// servedPins serves w one request at a time, with a fixed clock and
// random seed, through the epoch pipeline, audits the chain writing
// checkpoints, and lists every artifact pin and checkpoint ref list.
func servedPins(t *testing.T, w *workload.Workload) []string {
	t.Helper()
	dir := t.TempDir()
	fixed := time.Unix(1700000000, 0)
	prog := w.App.Compile()
	srv := server.New(prog, server.Options{Record: true, RandSeed: 7, Clock: func() time.Time { return fixed }})
	if err := srv.Setup(w.App.Schema); err != nil {
		t.Fatal(err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		t.Fatal(err)
	}
	mgr, err := StartManager(dir, srv, srv.Snapshot(), ManagerOptions{EpochEvents: 60})
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeAllContext(context.Background(), w.Requests, 1)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(prog, dir, AuditorOptions{Checkpoints: true})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if vs := a.Verdicts(); !a.ChainAccepted() || len(vs) < 3 {
		t.Fatalf("want an accepted chain of at least 3 epochs: %+v", vs)
	}
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	var pins []string
	for _, s := range sealed {
		m := s.Manifest
		for _, seg := range m.Segments {
			pins = append(pins, fmt.Sprintf("epoch %d segment %s: %s %v", s.Number, seg.Name, seg.SHA256, seg.Chunks))
		}
		pins = append(pins, fmt.Sprintf("epoch %d reports: %s %v", s.Number, m.Reports.SHA256, m.Reports.Chunks))
		if m.Init != nil {
			pins = append(pins, fmt.Sprintf("epoch %d init: %s %v", s.Number, m.Init.SHA256, m.Init.Chunks))
		}
		refs, err := LoadCheckpointRefs(dir, s.Number)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, fmt.Sprintf("epoch %d checkpoint: %v", s.Number, refs))
	}
	return pins
}
