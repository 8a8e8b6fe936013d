// Tamper example: a rogues' gallery of misbehaving executors, each of
// which the verifier must catch. It demonstrates the Soundness side of
// the audit: response tampering, forged read values, log manipulation,
// and the Figure 4 consistent-ordering attacks.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"orochi"
	"orochi/internal/lang"
	"orochi/internal/reports"
	"orochi/internal/trace"
	"orochi/internal/verifier"
)

var appSrc = map[string]string{
	"deposit": `
$acct = $_GET["acct"];
$amount = intval($_GET["amount"]);
$bal = session_get("bal:" . $acct);
if ($bal === null) { $bal = 0; }
$bal = $bal + $amount;
session_set("bal:" . $acct, $bal);
echo "balance of " . $acct . " is now " . $bal;
`,
	"balance": `
$acct = $_GET["acct"];
$bal = session_get("bal:" . $acct);
if ($bal === null) { $bal = 0; }
echo "balance of " . $acct . " is " . $bal;
`,
}

func main() {
	fmt.Println("=== Scenario 1: honest executor (must ACCEPT) ===")
	runScenario(nil, nil)

	fmt.Println("\n=== Scenario 2: tampered response (must REJECT) ===")
	runScenario(func(rid, body string) string {
		// Inflate a balance on the wire.
		return strings.Replace(body, "is now 70", "is now 700000", 1)
	}, nil)

	fmt.Println("\n=== Scenario 3: forged logged write (must REJECT) ===")
	runScenario(nil, func(rep *orochi.Reports) {
		for i := range rep.OpLogs {
			for j := range rep.OpLogs[i] {
				if rep.OpLogs[i][j].Type == lang.RegisterWrite {
					rep.OpLogs[i][j].Value = lang.EncodeValue(lang.Value(int64(700000)))
					return
				}
			}
		}
	})

	fmt.Println("\n=== Scenario 4: dropped operation + doctored count (must REJECT) ===")
	runScenario(nil, func(rep *orochi.Reports) {
		for i := range rep.OpLogs {
			if len(rep.OpLogs[i]) > 0 {
				victim := rep.OpLogs[i][len(rep.OpLogs[i])-1]
				rep.OpLogs[i] = rep.OpLogs[i][:len(rep.OpLogs[i])-1]
				rep.OpCounts[victim.RID]--
				return
			}
		}
	})

	fmt.Println("\n=== Scenario 5: reordered log vs trace order — Figure 4(a) (must REJECT) ===")
	figure4a()
}

func runScenario(tamperResp func(string, string) string, tamperRep func(*orochi.Reports)) {
	prog, err := orochi.CompileApp(appSrc)
	if err != nil {
		log.Fatal(err)
	}
	srv := orochi.NewServer(prog, orochi.ServerOptions{Record: true, TamperResponse: tamperResp})
	snap := srv.Snapshot()
	for _, step := range []struct {
		script, acct, amount string
	}{
		{"deposit", "alice", "50"},
		{"deposit", "alice", "20"},
		{"balance", "alice", ""},
		{"deposit", "bob", "10"},
		{"balance", "bob", ""},
	} {
		in := orochi.Input{Script: step.script, Get: map[string]string{"acct": step.acct}}
		if step.amount != "" {
			in.Get["amount"] = step.amount
		}
		_, body := srv.Handle(in)
		fmt.Println("  ", body)
	}
	rep := srv.Reports()
	if tamperRep != nil {
		tamperRep(rep)
	}
	res, err := orochi.AuditContext(context.Background(), prog, srv.Trace(), rep, snap, orochi.AuditOptions{})
	if err != nil {
		log.Fatal(err)
	}
	report(res)
}

// figure4a reconstructs example (a) of the paper's Figure 4: a
// sequential trace whose responses could only come from a different
// order than the trace shows, with logs arranged to be mutually
// consistent with the bogus responses. Simulate-and-check alone would
// accept it; the consistent-ordering check must reject it.
func figure4a() {
	prog, err := orochi.CompileApp(map[string]string{
		"f": `session_set("A", 1); $x = session_get("B"); echo $x;`,
		"g": `session_set("B", 1); $y = session_get("A"); echo $y;`,
	})
	if err != nil {
		log.Fatal(err)
	}
	tr := &trace.Trace{Events: []trace.Event{
		{Kind: trace.Request, RID: "r1", Time: 1, In: trace.Input{Script: "f"}},
		{Kind: trace.Response, RID: "r1", Time: 2, Body: "1"},
		{Kind: trace.Request, RID: "r2", Time: 3, In: trace.Input{Script: "g"}},
		{Kind: trace.Response, RID: "r2", Time: 4, Body: "0"},
	}}
	one := lang.EncodeValue(lang.Value(int64(1)))
	rep := &reports.Reports{
		Groups:  map[uint64][]string{1: {"r1"}, 2: {"r2"}},
		Scripts: map[uint64]string{1: "f", 2: "g"},
		Objects: []reports.ObjectID{
			{Kind: reports.RegisterObj, Name: "A"},
			{Kind: reports.RegisterObj, Name: "B"},
		},
		OpLogs: [][]reports.OpEntry{
			{
				{RID: "r2", Opnum: 2, Type: lang.RegisterRead, Key: "A"},
				{RID: "r1", Opnum: 1, Type: lang.RegisterWrite, Key: "A", Value: one},
			},
			{
				{RID: "r2", Opnum: 1, Type: lang.RegisterWrite, Key: "B", Value: one},
				{RID: "r1", Opnum: 2, Type: lang.RegisterRead, Key: "B"},
			},
		},
		OpCounts: map[string]int{"r1": 2, "r2": 2},
		NonDet:   map[string][]reports.NDEntry{},
	}
	init := &orochi.Snapshot{
		Registers: map[string]lang.Value{"A": int64(0), "B": int64(0)},
		KV:        map[string]lang.Value{},
	}
	res, err := verifier.AuditContext(context.Background(), prog, tr, rep, init, verifier.Options{})
	if err != nil {
		log.Fatal(err)
	}
	report(res)
}

func report(res *verifier.Result) {
	if res.Accepted {
		fmt.Println("  verdict: ACCEPT")
	} else {
		fmt.Printf("  verdict: REJECT (%s)\n", res.Reason)
	}
}
