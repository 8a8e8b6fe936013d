package harness

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// The dual-engine differential harness: the production (compiled)
// engine must be indistinguishable from the reference interpreter, so
// every observable — response bytes (including canonical HTTP 500
// fault renderings), canonical report bytes, audit verdicts, forensics
// — must be bit-identical across engines at any worker count and any
// SIMD lane width. These tests pin that end to end, on real workloads.

var allEngines = []struct {
	name string
	eng  lang.Engine
}{
	{"interp", lang.EngineInterp},
	{"compiled", lang.EngineCompiled},
}

// fastEngines is the production engine, checked against the
// interpreter's serving run.
var fastEngines = allEngines[1:]

// serveDeterministic runs w sequentially with a fixed clock and seed so
// two runs differ only in the engine under test.
func serveDeterministic(t *testing.T, w *workload.Workload, eng lang.Engine) *Served {
	t.Helper()
	fixed := time.Unix(1700000000, 0)
	served, err := Serve(w, server.Options{
		Record: true, RandSeed: 7, Engine: eng,
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
			ref := serveDeterministic(t, tc.w, lang.EngineInterp)
			refBodies := traceBodies(ref.Trace)
			for _, e := range fastEngines {
				got := serveDeterministic(t, tc.w, e.eng)
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

	ref := serveDeterministic(t, w, lang.EngineInterp)
	refBodies := traceBodies(ref.Trace)
	for _, e := range fastEngines {
		got := serveDeterministic(t, w, e.eng)
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
			res, err := ref.AuditContext(context.Background(), verifier.Options{Engine: e.eng, MaxGroup: maxGroup})
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

	honest := serveDeterministic(t, w, lang.EngineCompiled)
	for _, e := range allEngines {
		for _, workers := range []int{1, 8} {
			res, err := honest.AuditContext(context.Background(), verifier.Options{Engine: e.eng, Workers: workers})
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

	fixed := time.Unix(1700000000, 0)
	nth := 0
	tampered, err := Serve(w, server.Options{
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
			res, aerr := tampered.AuditContext(context.Background(), verifier.Options{Engine: e.eng, Workers: workers})
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
