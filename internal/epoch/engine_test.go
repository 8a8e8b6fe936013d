package epoch

import (
	"context"
	"os"
	"reflect"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/verifier"
)

// TestChainVerdictsEngineIndependent seals one faulted chain, then
// audits copies of it under the reference and the production engine,
// each at 1 and 8 re-execution workers. Every verdict field that feeds
// the ledger (epoch number, outcome, reason, forensics, manifest
// digest, chain digest) must be bit-identical: the engine is not an
// observable.
func TestChainVerdictsEngineIndependent(t *testing.T) {
	dir := t.TempDir()
	w := faultedWorkload()
	prog, srv, mgr := startFaultedPipeline(t, dir, w, server.Options{})
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
		eng     lang.Engine
		workers int
	}
	runs := []run{
		{"interp-w1", lang.EngineInterp, 1},
		{"interp-w8", lang.EngineInterp, 8},
		{"compiled-w1", lang.EngineCompiled, 1},
		{"compiled-w8", lang.EngineCompiled, 8},
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
		a := NewAuditor(prog, cp, AuditorOptions{
			Verify: verifier.Options{Engine: r.eng, Workers: r.workers},
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
