package lang_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"orochi/internal/epoch"
	"orochi/internal/harness"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// The dual-engine differential harness: the production (compiled)
// engine must be indistinguishable from the reference interpreter, so
// every observable — response bytes (including canonical HTTP 500
// fault renderings), canonical report bytes, audit verdicts, forensics,
// chain ledgers — must be bit-identical across engines at any worker
// count and any SIMD lane width. These tests pin that end to end, on
// real workloads served and audited through the production packages,
// with lang.UseReference switching every lang.Run in the process to
// the reference and back. None of them may run in parallel.

// engine selects which engine lang.Run executes under.
type engine struct {
	name string
	ref  bool
}

var (
	reference  = engine{"interp", true}
	production = engine{"compiled", false}
	allEngines = []engine{reference, production}
	// fastEngines is the production engine, checked against the
	// interpreter's serving run.
	fastEngines = allEngines[1:]
)

// serveDeterministic runs w sequentially with a fixed clock and seed so
// two runs differ only in the engine under test.
func serveDeterministic(t *testing.T, w *workload.Workload, eng engine) *harness.Served {
	t.Helper()
	lang.UseReference(t, eng.ref)
	fixed := time.Unix(1700000000, 0)
	served, err := harness.Serve(w, server.Options{
		Record: true, RandSeed: 7,
		Clock: func() time.Time { return fixed },
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return served
}

func traceBodies(tr *trace.Trace) []string {
	var out []string
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.Response {
			out = append(out, tr.Events[i].RID+"="+tr.Events[i].Body)
		}
	}
	return out
}

// TestDualEngineByteEquivalence: for a deterministic serving run, the
// interpreter and the compiled engine must produce byte-identical
// response bodies and byte-identical canonical reports (which embed the
// per-group digests, so fault-folded digests are covered too) on the
// wiki and forum workloads, with and without injected faults.
func TestDualEngineByteEquivalence(t *testing.T) {
	cases := []struct {
		name string
		w    *workload.Workload
	}{
		{"wiki", workload.Wiki(workload.DefaultWikiParams().Scale(100))},
		{"forum", workload.Forum(workload.DefaultForumParams().Scale(100))},
		{"wiki-faults", workload.WithErrors(
			workload.Wiki(workload.DefaultWikiParams().Scale(100)),
			workload.ErrorMixParams{Rate: 0.2, Seed: 3})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := serveDeterministic(t, tc.w, reference)
			refBodies := traceBodies(ref.Trace)
			for _, e := range fastEngines {
				got := serveDeterministic(t, tc.w, e)
				gotBodies := traceBodies(got.Trace)
				if !reflect.DeepEqual(refBodies, gotBodies) {
					for i := range refBodies {
						if i < len(gotBodies) && refBodies[i] != gotBodies[i] {
							t.Fatalf("response %d differs:\ninterp: %s\n%s: %s", i, refBodies[i], e.name, gotBodies[i])
						}
					}
					t.Fatalf("%s: response counts differ: %d vs %d", e.name, len(refBodies), len(gotBodies))
				}
				if !bytes.Equal(rawReports(t, ref), rawReports(t, got)) {
					t.Fatalf("report bytes differ between interp and %s", e.name)
				}
			}
		})
	}
}

// TestDualEngineFaultClasses serves each workload.WithErrors fault
// class under both engines and checks the canonical HTTP 500 rendering
// byte-for-byte, then audits the faulted run under every engine ×
// MaxGroup combination so the fault path is exercised at SIMD lane
// width 1 (MaxGroup 1 splits every group) and >1 (each fault request
// appears three times, so default grouping folds lanes together).
func TestDualEngineFaultClasses(t *testing.T) {
	base := workload.Wiki(workload.WikiParams{Requests: 30, Pages: 4, ZipfS: 0.53, Seed: 99})
	w := &workload.Workload{
		App:      workload.WithErrorScripts(base.App),
		Seed:     base.Seed,
		Requests: base.Requests,
	}
	faults := []trace.Input{
		{Script: workload.ErrorUnknownScript},
		{Script: workload.ErrorUndefinedFn, Get: map[string]string{"q": "x"}},
		{Script: workload.ErrorBadSQL},
	}
	// Three copies of each fault: identical requests land in one
	// control-flow group, so the default audit replays them multivalued.
	for i := 0; i < 3; i++ {
		w.Requests = append(w.Requests, faults...)
	}

	ref := serveDeterministic(t, w, reference)
	refBodies := traceBodies(ref.Trace)
	for _, e := range fastEngines {
		got := serveDeterministic(t, w, e)
		if !reflect.DeepEqual(refBodies, traceBodies(got.Trace)) {
			t.Fatalf("fault-class responses differ between interp and %s", e.name)
		}
		if !bytes.Equal(rawReports(t, ref), rawReports(t, got)) {
			t.Fatalf("report bytes differ between interp and %s on the fault mix", e.name)
		}
	}
	n500 := 0
	for _, b := range refBodies {
		if strings.Contains(b, "HTTP 500") {
			n500++
		}
	}
	if n500 != 3*len(faults) {
		t.Fatalf("expected %d canonical 500s, saw %d", 3*len(faults), n500)
	}

	for _, e := range allEngines {
		for _, maxGroup := range []int{1, 0} {
			lang.UseReference(t, e.ref)
			res, err := ref.AuditContext(context.Background(), verifier.Options{MaxGroup: maxGroup})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("engine %s maxgroup %d: rejected: %s", e.name, maxGroup, res.Reason)
			}
		}
	}
}

// TestDualEngineVerdictEquivalence audits one recorded run under every
// engine × worker-count combination: honest runs must ACCEPT
// everywhere, and a tampered run must REJECT with the same reason and
// the same forensics record under every combination.
func TestDualEngineVerdictEquivalence(t *testing.T) {
	w := workload.WithErrors(
		workload.Wiki(workload.DefaultWikiParams().Scale(100)),
		workload.ErrorMixParams{Rate: 0.1, Seed: 5})

	honest := serveDeterministic(t, w, production)
	for _, e := range allEngines {
		for _, workers := range []int{1, 8} {
			lang.UseReference(t, e.ref)
			res, err := honest.AuditContext(context.Background(), verifier.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("engine %s workers %d: rejected: %s", e.name, workers, res.Reason)
			}
			if res.Stats.RequestsReplayed != honest.Requests {
				t.Fatalf("engine %s: replayed %d of %d", e.name, res.Stats.RequestsReplayed, honest.Requests)
			}
		}
	}

	lang.UseReference(t, false)
	fixed := time.Unix(1700000000, 0)
	nth := 0
	tampered, err := harness.Serve(w, server.Options{
		Record: true, RandSeed: 7,
		Clock: func() time.Time { return fixed },
		TamperResponse: func(rid, body string) string {
			// Sequential serving: corrupt exactly the fifth response.
			nth++
			if nth == 5 {
				return body + "<!-- tampered -->"
			}
			return body
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantReason string
	var wantForensics *verifier.Forensics
	for i, e := range allEngines {
		for _, workers := range []int{1, 8} {
			lang.UseReference(t, e.ref)
			res, aerr := tampered.AuditContext(context.Background(), verifier.Options{Workers: workers})
			if aerr != nil {
				t.Fatal(aerr)
			}
			if res.Accepted {
				t.Fatalf("engine %s workers %d: tampered run accepted", e.name, workers)
			}
			if i == 0 && wantReason == "" {
				wantReason, wantForensics = res.Reason, res.Forensics
				continue
			}
			if res.Reason != wantReason {
				t.Fatalf("engine %s workers %d: reason %q, want %q", e.name, workers, res.Reason, wantReason)
			}
			if !reflect.DeepEqual(res.Forensics, wantForensics) {
				t.Fatalf("engine %s workers %d: forensics %+v, want %+v", e.name, workers, res.Forensics, wantForensics)
			}
		}
	}
}

func rawReports(t *testing.T, served *harness.Served) []byte {
	t.Helper()
	raw, err := served.Reports.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// faultedWorkload builds a small wiki workload with the error-injecting
// request mix: unknown script, undefined function, and bad SQL faults
// sprinkled among normal traffic.
func faultedWorkload() *workload.Workload {
	return workload.WithErrors(
		workload.Wiki(workload.WikiParams{Requests: 80, Pages: 5, ZipfS: 0.53, Seed: 9}),
		workload.ErrorMixParams{Rate: 0.2, Seed: 9})
}

// startFaultedPipeline provisions a recording server for the faulted
// wiki workload with the epoch manager attached.
func startFaultedPipeline(t *testing.T, dir string, w *workload.Workload) (*lang.Program, *server.Server, *epoch.Manager) {
	t.Helper()
	prog := w.App.Compile()
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(w.App.Schema); err != nil {
		t.Fatal(err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		t.Fatal(err)
	}
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: 30})
	if err != nil {
		t.Fatal(err)
	}
	return prog, srv, mgr
}

// TestChainVerdictsEngineIndependent seals one faulted chain, then
// audits copies of it under the reference and the production engine,
// each at 1 and 8 re-execution workers. Every verdict field that feeds
// the ledger (epoch number, outcome, reason, forensics, manifest
// digest, chain digest) must be bit-identical: the engine is not an
// observable.
func TestChainVerdictsEngineIndependent(t *testing.T) {
	dir := t.TempDir()
	w := faultedWorkload()
	prog, srv, mgr := startFaultedPipeline(t, dir, w)
	for i := 0; i < len(w.Requests); i += 16 {
		end := i + 16
		if end > len(w.Requests) {
			end = len(w.Requests)
		}
		srv.ServeAllContext(context.Background(), w.Requests[i:end], 4)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	type run struct {
		name    string
		eng     engine
		workers int
	}
	runs := []run{
		{"interp-w1", reference, 1},
		{"interp-w8", reference, 8},
		{"compiled-w1", production, 1},
		{"compiled-w8", production, 8},
	}
	type obs struct {
		Epoch       int64
		Accepted    bool
		Reason      string
		Forensics   *verifier.Forensics
		Events      int
		Requests    int
		ManifestSHA string
		ChainSHA    string
	}
	var want []obs
	for i, r := range runs {
		// Each run audits its own copy of the chain so decision logs
		// don't bleed between runs.
		cp := t.TempDir()
		if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		lang.UseReference(t, r.eng.ref)
		a := epoch.NewAuditor(prog, cp, epoch.AuditorOptions{
			Verify: verifier.Options{Workers: r.workers},
		})
		if _, err := a.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		verdicts := a.Verdicts()
		if len(verdicts) == 0 {
			t.Fatalf("%s: no verdicts", r.name)
		}
		var got []obs
		for _, v := range verdicts {
			if !v.Accepted {
				t.Fatalf("%s: epoch %d rejected: %s", r.name, v.Epoch, v.Reason)
			}
			got = append(got, obs{v.Epoch, v.Accepted, v.Reason, v.Forensics,
				v.Events, v.Requests, v.ManifestSHA, v.ChainSHA})
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s verdicts diverge from %s:\n%+v\nvs\n%+v", r.name, runs[0].name, got, want)
		}
	}
}
