// Quickstart: the smallest complete OROCHI flow. We write a tiny
// application in the embedded language, run it on an (untrusted) server
// with recording enabled, capture the trace with the trusted collector,
// and audit — all in a few lines against the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"orochi"
)

func main() {
	// 1. The principal's program: a greeting service with a per-user
	//    visit counter kept in session state.
	prog, err := orochi.CompileApp(map[string]string{
		"greet": `
$name = $_GET["name"];
$visits = session_get("visits:" . $name);
if ($visits === null) { $visits = 0; }
$visits = $visits + 1;
session_set("visits:" . $name, $visits);
echo "<p>Hello, " . htmlspecialchars($name) . "! Visit #" . $visits . "</p>";
`,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Deploy on the executor with report recording on, and snapshot
	//    the (empty) initial state for the verifier.
	srv := orochi.NewServer(prog, orochi.ServerOptions{Record: true})
	initialState := srv.Snapshot()

	// 3. Clients issue requests; the collector inside the server records
	//    the trace at the boundary.
	for _, name := range []string{"alice", "bob", "alice", "alice", "bob"} {
		_, body := srv.Handle(orochi.Input{
			Script: "greet",
			Get:    map[string]string{"name": name},
		})
		fmt.Println(body)
	}

	// 4. Audit: the verifier gets the trusted trace, the UNTRUSTED
	//    reports, and the initial state.
	res, err := orochi.AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), initialState, orochi.AuditOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if res.Accepted {
		fmt.Printf("\nAUDIT ACCEPTED in %v — every response was produced by the program.\n",
			res.Stats.Total)
	} else {
		fmt.Printf("\nAUDIT REJECTED: %s\n", res.Reason)
	}
}
