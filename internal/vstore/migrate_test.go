package vstore_test

import (
	"bytes"
	"context"
	"testing"

	"orochi/internal/harness"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/sqlmini"
	"orochi/internal/verifier"
	"orochi/internal/vstore"
	"orochi/internal/workload"
)

// TestMigrateFinalMatchesSQLTextOracle: on each application's served and
// audited workload, the directly built final tables and the SQL-text
// round trip encode to the same snapshot bytes — same tables in the same
// order, same columns, same rows in the same order, same counters.
func TestMigrateFinalMatchesSQLTextOracle(t *testing.T) {
	apps := map[string]*workload.Workload{
		"wiki":   workload.Wiki(workload.WikiParams{Requests: 400, Pages: 40, ZipfS: 0.53, Seed: 3}),
		"forum":  workload.Forum(workload.ForumParams{Requests: 400, Topics: 60, Users: 20, GuestRatio: 0.5, Seed: 3}),
		"hotcrp": workload.HotCRP(workload.DefaultHotCRPParams().Scale(20)),
	}
	for name, w := range apps {
		t.Run(name, func(t *testing.T) {
			served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: 3})
			if err != nil {
				t.Fatal(err)
			}
			res, err := served.AuditContext(context.Background(), verifier.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("audit rejected: %s", res.Reason)
			}
			direct, err := res.FinalDB.MigrateFinal()
			if err != nil {
				t.Fatal(err)
			}
			oracleDB, err := vstore.MigrateFinalSQLText(res.FinalDB)
			if err != nil {
				t.Fatal(err)
			}
			var oracle []*sqlmini.Table
			rows := 0
			for _, tbl := range oracleDB.Tables() {
				oracle = append(oracle, oracleDB.TableCopy(tbl))
				rows += len(oracle[len(oracle)-1].Rows)
			}
			if rows == 0 {
				t.Fatal("the workload left no rows to migrate")
			}
			got, want := encodeTables(t, direct), encodeTables(t, oracle)
			if !bytes.Equal(got, want) {
				t.Fatalf("direct migration encodes to %d bytes, the SQL-text oracle to %d, and they differ", len(got), len(want))
			}
			// And both are the state the server actually holds.
			if live := encodeTables(t, served.Server.Snapshot().Tables); !bytes.Equal(got, live) {
				t.Fatal("migrated tables differ from the live server's tables")
			}
		})
	}
}

// encodeTables encodes the tables alone (the snapshot's maps stay
// empty), so equal tables give equal bytes.
func encodeTables(t *testing.T, tables []*sqlmini.Table) []byte {
	t.Helper()
	b, err := (&object.Snapshot{Registers: map[string]lang.Value{}, KV: map[string]lang.Value{}, Tables: tables}).EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
