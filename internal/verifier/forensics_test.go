package verifier

import (
	"context"
	"reflect"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/workload"
)

// These tests pin the forensics contract: a REJECT's structured
// evidence names the exact offending request (and its group/object
// coordinates) and is bit-identical at every Options.Workers setting —
// forensics ride the same first-failure arbitration as the reject
// reason, so parallelism must not change what the operator sees.

// forensicsWorkloads returns the two paper workloads the determinism
// test tampers with, plus the request ID to corrupt in each.
func forensicsWorkloads() map[string]struct {
	w   *workload.Workload
	rid string
} {
	return map[string]struct {
		w   *workload.Workload
		rid string
	}{
		"wiki": {
			w:   workload.Wiki(workload.WikiParams{Requests: 220, Pages: 25, ZipfS: 0.53, Seed: 11}),
			rid: "r000137",
		},
		"forum": {
			w:   workload.Forum(workload.ForumParams{Requests: 220, Topics: 8, Users: 12, GuestRatio: 0.8, Seed: 12}),
			rid: "r000171",
		},
	}
}

// TestForensicsPinpointTamperedRequest corrupts one known request's
// recorded response on the wiki and forum workloads and checks that the
// forensics name exactly that request — phase, check, group
// coordinates, and response diff — identically at Workers=1 and
// Workers=8.
func TestForensicsPinpointTamperedRequest(t *testing.T) {
	for name, tc := range forensicsWorkloads() {
		t.Run(name, func(t *testing.T) {
			target := tc.rid
			prog, tr, art := serveParallelWorkload(t, tc.w, 4, func(rid, body string) string {
				if rid == target {
					return body + "<!-- tampered -->"
				}
				return body
			})
			rep := art.srv.Reports()

			seq, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Accepted {
				t.Fatal("tampered response must be rejected")
			}
			f := seq.Forensics
			if f == nil {
				t.Fatal("rejected audit published no forensics")
			}
			if f.RequestID != target {
				t.Fatalf("forensics blame request %q, tampered %q", f.RequestID, target)
			}
			if f.Phase != PhaseReExec || f.Check != "output-mismatch" {
				t.Fatalf("forensics classify failure as (%s, %s), want (%s, output-mismatch)", f.Phase, f.Check, PhaseReExec)
			}
			if f.Script == "" || f.GroupTag == "" || f.GroupSize <= 0 {
				t.Fatalf("forensics missing group coordinates: %+v", f)
			}
			if f.Diff == nil {
				t.Fatal("output-mismatch forensics carry no response diff")
			}
			// The tamper appended bytes, so the diff starts where the
			// honest body ended.
			if f.Diff.TracedLen != f.Diff.ReExecLen+len("<!-- tampered -->") {
				t.Fatalf("diff lengths %d/%d do not reflect the appended tamper", f.Diff.TracedLen, f.Diff.ReExecLen)
			}
			if f.Diff.FirstDiff != f.Diff.ReExecLen {
				t.Fatalf("first divergence at %d, want the honest body length %d", f.Diff.FirstDiff, f.Diff.ReExecLen)
			}

			// Bit-identical at any worker count, across repeated parallel
			// schedules.
			for run := 0; run < 3; run++ {
				par, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{Workers: 8})
				if err != nil {
					t.Fatal(err)
				}
				if par.Accepted || par.Reason != seq.Reason {
					t.Fatalf("run %d: parallel verdict (%v, %q) differs from sequential (false, %q)",
						run, par.Accepted, par.Reason, seq.Reason)
				}
				if !reflect.DeepEqual(par.Forensics, seq.Forensics) {
					t.Fatalf("run %d: forensics differ across worker counts:\nseq: %+v\npar: %+v",
						run, seq.Forensics, par.Forensics)
				}
			}
		})
	}
}

// TestForensicsPhase2ObjectCoordinates forges one operation in the
// report's object logs and checks the forensics carry Phase 2
// coordinates — the object and the 1-based log sequence number —
// deterministically across worker counts.
func TestForensicsPhase2ObjectCoordinates(t *testing.T) {
	prog := compileApp(t)
	inputs := sampleInputs(12)
	tr, art := serveWorkload(t, prog, inputs, 2)
	rep := art.srv.Reports()
	forged := false
	for i := range rep.OpLogs {
		for j := range rep.OpLogs[i] {
			if rep.OpLogs[i][j].Type == lang.KvSet {
				rep.OpLogs[i][j].Value = "\x00not-a-value"
				forged = true
				break
			}
		}
		if forged {
			break
		}
	}
	if !forged {
		t.Fatal("workload produced no KvSet to forge")
	}
	var first *Forensics
	for _, workers := range []int{1, 4} {
		res, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			t.Fatal("forged op log must be rejected")
		}
		f := res.Forensics
		if f == nil {
			t.Fatal("rejected audit published no forensics")
		}
		if f.Phase != PhaseRedo {
			t.Fatalf("workers=%d: forged write classified under phase %s, want %s", workers, f.Phase, PhaseRedo)
		}
		if f.Object == "" || f.OpIndex <= 0 {
			t.Fatalf("workers=%d: forensics missing object/log coordinates: %+v", workers, f)
		}
		if first == nil {
			first = f
		} else if !reflect.DeepEqual(first, f) {
			t.Fatalf("forensics differ across worker counts:\nfirst: %+v\nnow:   %+v", first, f)
		}
	}
}

// TestForensicsNilOnAccept: an accepted audit publishes no forensics.
func TestForensicsNilOnAccept(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(16), 2)
	res, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest run rejected: %s", res.Reason)
	}
	if res.Forensics != nil {
		t.Fatalf("accepted audit carries forensics: %+v", res.Forensics)
	}
}
