package epoch

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this build")

// TestGoldenLedger pins, across builds, the bytes a fixed run seals and
// the Fig. 11 accounting its audit reports. Wiki, forum and hotcrp are
// served one request at a time under a fixed clock and random seed into
// small epochs; the ledger lists the format stamp, every epoch's trace,
// reports and init digests and chunk refs, a hash of every response
// body, and every epoch's audit counters and per-group statistics,
// which must be the same at Workers 1 and 8. A change that moves a line
// regenerates the file with -update and says which lines moved and why.
func TestGoldenLedger(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "ManifestVersion %d\n", ManifestVersion)
	for _, tc := range []struct {
		name string
		w    *workload.Workload
	}{
		{"wiki", workload.Wiki(workload.WikiParams{Requests: 160, Pages: 10, ZipfS: 0.53, Seed: 5})},
		{"forum", workload.Forum(workload.ForumParams{Requests: 160, Topics: 6, Users: 10, GuestRatio: 0.8, Seed: 6})},
		{"hotcrp", workload.HotCRP(workload.DefaultHotCRPParams().Scale(40))},
	} {
		fmt.Fprintf(&b, "\n== %s\n", tc.name)
		goldenApp(t, &b, tc.w)
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("ledger differs from %s at line %d (rerun with -update if the move is intended):\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// goldenApp serves w into a fresh chain and writes its ledger lines.
func goldenApp(t *testing.T, b *strings.Builder, w *workload.Workload) {
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
	mgr, err := StartManager(dir, srv, srv.Snapshot(), ManagerOptions{EpochEvents: 120})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeAllContext(context.Background(), w.Requests, 1); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sealed {
		m := s.Manifest
		for _, seg := range m.Segments {
			fmt.Fprintf(b, "epoch %d trace %s: %s %v\n", s.Number, seg.Name, seg.SHA256, seg.Chunks)
		}
		fmt.Fprintf(b, "epoch %d reports: %s %v\n", s.Number, m.Reports.SHA256, m.Reports.Chunks)
		if m.Init != nil {
			fmt.Fprintf(b, "epoch %d init: %s %v\n", s.Number, m.Init.SHA256, m.Init.Chunks)
		}
		ld, err := Load(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range ld.Trace.Events {
			if ev.Kind == trace.Response {
				fmt.Fprintf(b, "epoch %d response %s: %x\n", s.Number, ev.RID, sha256.Sum256([]byte(ev.Body)))
			}
		}
	}
	var stats [2]string
	for i, workers := range []int{1, 8} {
		a := NewAuditor(prog, dir, AuditorOptions{Workers: 1, Verify: verifier.Options{Workers: workers, CollectStats: true}})
		if _, err := a.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !a.ChainAccepted() {
			t.Fatalf("Workers %d: honest chain not accepted: %+v", workers, a.Verdicts())
		}
		var sb strings.Builder
		for _, v := range a.Verdicts() {
			st := v.Stats
			fmt.Fprintf(&sb, "epoch %d audit: dedup %d/%d instr %d uni %d multi, fallback %d, replayed %d, batches %d\n",
				v.Epoch, st.DedupHits, st.DedupMisses, st.InstrUni, st.InstrMulti, st.FallbackRequests, st.RequestsReplayed, st.GroupBatches)
			for _, g := range st.Groups {
				fmt.Fprintf(&sb, "epoch %d group %016x %s: n %d len %d alpha %.6f\n", v.Epoch, g.Tag, g.Script, g.N, g.Len, g.Alpha)
			}
		}
		stats[i] = sb.String()
	}
	if stats[0] != stats[1] {
		t.Fatalf("audit statistics differ between Workers 1 and 8:\n%s\nvs\n%s", stats[0], stats[1])
	}
	b.WriteString(stats[0])
}
