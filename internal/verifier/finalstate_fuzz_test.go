package verifier

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/server"
	"orochi/internal/trace"
)

// FuzzFinalState pins the fleet coordinator's boundary: it derives each
// epoch's final state with FinalState, Phase 2 alone, on reports no
// Phase 1 has seen. The input is a script of mutations (mutateReports)
// applied to an honest period's reports: object and log counts, the
// order of a log's entries, and their contents. On every input:
//   - neither FinalState nor Prepare panics, and neither returns an
//     error (a mutated report is the executor's doing: a verdict);
//   - when Prepare passes Phases 1–2, FinalState returns exactly the
//     state Prepared.Candidate reads off, byte for byte;
//   - when FinalState REJECTs, so does Prepare, and with the same
//     reason unless Prepare's Phase 1 rejected first; conversely, a
//     Prepare REJECT outside Phase 1 is FinalState's REJECT.
func FuzzFinalState(f *testing.F) {
	prog, err := lang.Compile(testApp)
	if err != nil {
		f.Fatal(err)
	}
	fixed := time.Unix(1700000000, 0)
	srv := server.New(prog, server.Options{Record: true, RandSeed: 1, Clock: func() time.Time { return fixed }})
	if err := srv.Setup(testSchema); err != nil {
		f.Fatal(err)
	}
	initState := srv.Snapshot()
	inputs := sampleInputs(20)
	inputs = append(inputs,
		trace.Input{Script: "vote", Get: map[string]string{"id": "1"}},
		trace.Input{Script: "unpost", Get: map[string]string{"id": "2"}},
		trace.Input{Script: "vote", Get: map[string]string{"id": "3"}})
	srv.ServeAllContext(context.Background(), inputs, 1)
	tr, honest := srv.Trace(), srv.Reports()

	// The seeds are the shapes TestFinalStateMatchesCandidate and
	// TestFinalStateRejectsMalformedObjects pin: the honest reports, a
	// DB write that does not parse, one log too few or too many, and one
	// object named twice.
	f.Add([]byte{})
	for a, o := range honest.Objects {
		for b, e := range honest.OpLogs[a] {
			if o.Kind == reports.DBObj && e.OK && len(e.Stmts) > 0 && a < 256 && b < 256 {
				f.Add([]byte{mutStmt, byte(a), byte(b), 0, 0})
				break
			}
		}
	}
	f.Add([]byte{mutDropLog})
	f.Add([]byte{mutAddLog})
	f.Add([]byte{mutDupObject, 0, 1})
	f.Add([]byte{mutSwap, 2, 0, 1, mutOpnum, 1, 1, 3})

	f.Fuzz(func(t *testing.T, script []byte) {
		ctx := context.Background()
		p, pres, perr := Prepare(ctx, tr, mutateReports(honest, script), initState, Options{})
		snap, rej, ferr := FinalState(ctx, initState, mutateReports(honest, script), Options{})
		if perr != nil || ferr != nil {
			t.Fatalf("mutated reports are a verdict, not an error: Prepare %v, FinalState %v", perr, ferr)
		}
		if p != nil {
			if rej != nil {
				t.Fatalf("Prepare passed Phases 1–2, FinalState REJECTs: %s", rej.Reason)
			}
			cand, err := p.Candidate()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeRaw(t, snap), encodeRaw(t, cand)) {
				t.Fatal("FinalState differs from Prepared.Candidate")
			}
			return
		}
		if pres == nil || pres.Accepted {
			t.Fatalf("Prepare returned neither a Prepared nor a REJECT: %+v", pres)
		}
		if pres.Forensics.Phase == PhaseProcessOpReports {
			// Phase 1 runs first in Prepare; FinalState has none, so it
			// may pass or reject for a later reason.
			return
		}
		if rej == nil || rej.Reason != pres.Reason {
			t.Fatalf("Prepare REJECTs in %s (%q), FinalState: %+v", pres.Forensics.Phase, pres.Reason, rej)
		}
	})
}

func encodeRaw(t *testing.T, s *object.Snapshot) []byte {
	t.Helper()
	raw, err := s.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// The mutations mutateReports applies, one per command byte (taken mod
// mutCount); the bytes after a command are its operands.
const (
	mutDropLog    = iota // drop the last operation log
	mutAddLog            // append an empty operation log
	mutDupObject         // object a takes object b's identity
	mutDropObject        // remove object a (its log stays)
	mutKind              // object a changes kind
	mutSwap              // swap entries b and c of log a
	mutMove              // move entry b of log a to the end of log c
	mutDelete            // delete entry b of log a
	mutDup               // duplicate entry b of log a in place
	mutOpnum             // entry b of log a: opnum += c-128
	mutRID               // entry b of log a takes entry c's request id
	mutType              // entry b of log a: type c
	mutKey               // entry b of log a: key and value swap, or key set to c's text
	mutValue             // entry b of log a: value truncated to c bytes
	mutStmt              // entry b of log a: statement c replaced, dropped or duplicated (d)
	mutOK                // entry b of log a: OK flipped
	mutCount
)

// mutateReports applies script to a deep copy of rep. Every operand is
// taken modulo what it indexes, so any byte string is a valid script.
func mutateReports(rep *reports.Reports, script []byte) *reports.Reports {
	r := rep.Clone()
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := int(script[0])
		script = script[1:]
		return b
	}
	pick := func(n int) int {
		b := next()
		if n == 0 {
			return -1
		}
		return b % n
	}
	// entry picks log a and entry b of it; nil when there is none.
	entry := func() (int, int, *reports.OpEntry) {
		a := pick(len(r.OpLogs))
		if a < 0 {
			return -1, -1, nil
		}
		b := pick(len(r.OpLogs[a]))
		if b < 0 {
			return a, -1, nil
		}
		return a, b, &r.OpLogs[a][b]
	}
	for steps := 0; len(script) > 0 && steps < 16; steps++ {
		switch next() % mutCount {
		case mutDropLog:
			if n := len(r.OpLogs); n > 0 {
				r.OpLogs = r.OpLogs[:n-1]
			}
		case mutAddLog:
			r.OpLogs = append(r.OpLogs, nil)
		case mutDupObject:
			a, b := pick(len(r.Objects)), pick(len(r.Objects))
			if a >= 0 {
				r.Objects[a] = r.Objects[b]
			}
		case mutDropObject:
			if a := pick(len(r.Objects)); a >= 0 {
				r.Objects = append(r.Objects[:a], r.Objects[a+1:]...)
			}
		case mutKind:
			if a := pick(len(r.Objects)); a >= 0 {
				r.Objects[a].Kind = reports.ObjectKind(next() % 5)
			}
		case mutSwap:
			if a, b, e := entry(); e != nil {
				c := pick(len(r.OpLogs[a]))
				r.OpLogs[a][b], r.OpLogs[a][c] = r.OpLogs[a][c], r.OpLogs[a][b]
			}
		case mutMove:
			if a, b, e := entry(); e != nil {
				moved := *e
				r.OpLogs[a] = append(r.OpLogs[a][:b], r.OpLogs[a][b+1:]...)
				c := pick(len(r.OpLogs))
				r.OpLogs[c] = append(r.OpLogs[c], moved)
			}
		case mutDelete:
			if a, b, e := entry(); e != nil {
				r.OpLogs[a] = append(r.OpLogs[a][:b], r.OpLogs[a][b+1:]...)
			}
		case mutDup:
			if a, b, e := entry(); e != nil {
				r.OpLogs[a] = append(r.OpLogs[a][:b+1], r.OpLogs[a][b:]...)
			}
		case mutOpnum:
			if _, _, e := entry(); e != nil {
				e.Opnum += next() - 128
			}
		case mutRID:
			if _, _, e := entry(); e != nil {
				if _, _, o := entry(); o != nil {
					e.RID = o.RID
				} else {
					e.RID = "no-such-request"
				}
			}
		case mutType:
			if _, _, e := entry(); e != nil {
				e.Type = lang.OpType(next() % 8)
			}
		case mutKey:
			if _, _, e := entry(); e != nil {
				if c := next(); c%2 == 0 {
					e.Key, e.Value = e.Value, e.Key
				} else {
					e.Key = fmt.Sprint(c)
				}
			}
		case mutValue:
			if _, _, e := entry(); e != nil {
				e.Value = e.Value[:min(len(e.Value), next())]
			}
		case mutStmt:
			if _, _, e := entry(); e != nil && len(e.Stmts) > 0 {
				c := pick(len(e.Stmts))
				stmts := append([]string(nil), e.Stmts...)
				switch next() % 4 {
				case 0:
					stmts[c] = "NOT SQL"
				case 1:
					stmts = append(stmts[:c], stmts[c+1:]...)
				case 2:
					stmts = append(stmts[:c+1], stmts[c:]...)
				default:
					stmts[c] = stmts[c][:len(stmts[c])/2]
				}
				e.Stmts = stmts
			}
		case mutOK:
			if _, _, e := entry(); e != nil {
				e.OK = !e.OK
			}
		}
	}
	return r
}
