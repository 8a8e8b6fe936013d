package verifier

import (
	"fmt"
	"strings"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/server"
	"orochi/internal/sqlmini"
	"orochi/internal/trace"
)

// testApp is a small application exercising all three object kinds plus
// nondeterminism.
var testApp = map[string]string{
	"visit": `
$user = $_COOKIE["user"];
$sess = session_get("sess:" . $user);
if (!is_array($sess)) {
  $sess = ["visits" => 0];
}
$sess["visits"] = $sess["visits"] + 1;
session_set("sess:" . $user, $sess);
$hits = apc_get("hits");
if ($hits === null) { $hits = 0; }
apc_set("hits", $hits + 1);
echo "<html>hello " . $user . ", visit " . $sess["visits"] . "</html>";
`,
	"post": `
$title = $_POST["title"];
$r = db_exec("INSERT INTO posts (title, votes) VALUES (" . db_quote($title) . ", 0)");
echo "created post " . $r["insert_id"];
`,
	"list": `
$rows = db_query("SELECT id, title, votes FROM posts ORDER BY id");
echo "<ul>";
foreach ($rows as $row) {
  echo "<li>" . $row["id"] . ":" . htmlspecialchars($row["title"]) . " (" . $row["votes"] . ")</li>";
}
echo "</ul>";
`,
	"vote": `
$id = intval($_GET["id"]);
db_exec("UPDATE posts SET votes = votes + 1 WHERE id = " . $id);
$rows = db_query("SELECT votes FROM posts WHERE id = " . $id);
if (count($rows) > 0) {
  echo "votes=" . $rows[0]["votes"];
} else {
  echo "no such post";
}
`,
	"unpost": `
$id = intval($_GET["id"]);
$r = db_exec("DELETE FROM posts WHERE id = " . $id);
echo "deleted " . $r["affected"];
`,
	"now": `
$t = time();
$r = mt_rand(1, 100);
echo "t=" . ($t > 0 ? "ok" : "bad") . " r=" . (($r >= 1 && $r <= 100) ? "ok" : "bad");
`,
}

var testSchema = []string{
	`CREATE TABLE posts (id INT PRIMARY KEY AUTOINCREMENT, title TEXT, votes INT)`,
}

func compileApp(t *testing.T) *lang.Program {
	t.Helper()
	prog, err := lang.Compile(testApp)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// serveWorkload runs the inputs against a recording server and returns
// everything the verifier needs.
func serveWorkload(t *testing.T, prog *lang.Program, inputs []trace.Input, concurrency int) (*trace.Trace, *serverArtifacts) {
	t.Helper()
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	srv.ServeAll(inputs, concurrency)
	return srv.Trace(), &serverArtifacts{srv: srv, snap: snap}
}

type serverArtifacts struct {
	srv  *server.Server
	snap *object.Snapshot
}

func mustAudit(t *testing.T, prog *lang.Program, tr *trace.Trace, art *serverArtifacts) *Result {
	t.Helper()
	res, err := Audit(prog, tr, art.srv.Reports(), art.snap, Options{CollectStats: true})
	if err != nil {
		t.Fatalf("audit error: %v", err)
	}
	return res
}

func sampleInputs(n int) []trace.Input {
	var inputs []trace.Input
	users := []string{"alice", "bob", "carol"}
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0, 1:
			inputs = append(inputs, trace.Input{
				Script: "visit",
				Cookie: map[string]string{"user": users[i%len(users)]},
			})
		case 2:
			inputs = append(inputs, trace.Input{
				Script: "post",
				Post:   map[string]string{"title": fmt.Sprintf("Post #%d", i)},
			})
		case 3:
			inputs = append(inputs, trace.Input{Script: "list"})
		default:
			inputs = append(inputs, trace.Input{
				Script: "now",
			})
		}
	}
	return inputs
}

func TestAuditAcceptsHonestSequential(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(25), 1)
	res := mustAudit(t, prog, tr, art)
	if !res.Accepted {
		t.Fatalf("honest sequential execution rejected: %s", res.Reason)
	}
	if res.Stats.RequestsReplayed != 25 {
		t.Fatalf("replayed %d requests, want 25", res.Stats.RequestsReplayed)
	}
}

func TestAuditAcceptsHonestConcurrent(t *testing.T) {
	prog := compileApp(t)
	for _, conc := range []int{2, 4, 8} {
		tr, art := serveWorkload(t, prog, sampleInputs(60), conc)
		res := mustAudit(t, prog, tr, art)
		if !res.Accepted {
			t.Fatalf("honest concurrent (%d) execution rejected: %s", conc, res.Reason)
		}
	}
}

func TestAuditAcceptsVotesReadModifyWrite(t *testing.T) {
	prog := compileApp(t)
	inputs := []trace.Input{
		{Script: "post", Post: map[string]string{"title": "target"}},
	}
	for i := 0; i < 20; i++ {
		inputs = append(inputs, trace.Input{Script: "vote", Get: map[string]string{"id": "1"}})
	}
	tr, art := serveWorkload(t, prog, inputs, 6)
	res := mustAudit(t, prog, tr, art)
	if !res.Accepted {
		t.Fatalf("vote workload rejected: %s", res.Reason)
	}
}

func TestAuditGroupsDeduplicate(t *testing.T) {
	// Many identical 'list' requests must form one group with high alpha.
	prog := compileApp(t)
	inputs := []trace.Input{{Script: "post", Post: map[string]string{"title": "only"}}}
	for i := 0; i < 30; i++ {
		inputs = append(inputs, trace.Input{Script: "list"})
	}
	tr, art := serveWorkload(t, prog, inputs, 1)
	res := mustAudit(t, prog, tr, art)
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	var listGroup *GroupStat
	for i := range res.Stats.Groups {
		if res.Stats.Groups[i].Script == "list" && res.Stats.Groups[i].N > 1 {
			listGroup = &res.Stats.Groups[i]
		}
	}
	if listGroup == nil {
		t.Fatal("expected a multi-request 'list' group")
	}
	if listGroup.N != 30 {
		t.Fatalf("list group size = %d, want 30", listGroup.N)
	}
	if listGroup.Alpha < 0.95 {
		t.Fatalf("alpha = %f, want > 0.95 (Fig. 11 shape)", listGroup.Alpha)
	}
	if res.Stats.DedupHits == 0 {
		t.Fatal("expected read-query dedup hits for identical SELECTs")
	}
}

// --- Soundness: tampering must be rejected ---

func TestAuditRejectsTamperedResponse(t *testing.T) {
	prog := compileApp(t)
	srv := server.New(prog, server.Options{
		Record: true,
		TamperResponse: func(rid, body string) string {
			if rid == "r000007" {
				return body + "<!-- tampered -->"
			}
			return body
		},
	})
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	srv.ServeAll(sampleInputs(20), 4)
	res, err := Audit(prog, srv.Trace(), srv.Reports(), snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("tampered response must be rejected")
	}
	if !strings.Contains(res.Reason, "output mismatch") && !strings.Contains(res.Reason, "diverge") {
		t.Logf("reject reason: %s", res.Reason)
	}
}

func TestAuditRejectsForgedWriteValue(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(20), 4)
	rep := art.srv.Reports()
	// Forge a logged register write's value.
	forged := false
	for i := range rep.OpLogs {
		for j := range rep.OpLogs[i] {
			if rep.OpLogs[i][j].Type == lang.RegisterWrite {
				rep.OpLogs[i][j].Value = lang.EncodeValue(lang.Value("forged"))
				forged = true
				break
			}
		}
		if forged {
			break
		}
	}
	if !forged {
		t.Fatal("no register write found to forge")
	}
	res, err := Audit(prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("forged write value must be rejected")
	}
}

func TestAuditRejectsDroppedLogEntry(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(20), 4)
	rep := art.srv.Reports()
	for i := range rep.OpLogs {
		if len(rep.OpLogs[i]) > 0 {
			rep.OpLogs[i] = rep.OpLogs[i][1:]
			break
		}
	}
	res, err := Audit(prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("dropped log entry must be rejected")
	}
}

func TestAuditRejectsDuplicatedLogEntry(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(20), 4)
	rep := art.srv.Reports()
	for i := range rep.OpLogs {
		if len(rep.OpLogs[i]) > 0 {
			rep.OpLogs[i] = append(rep.OpLogs[i], rep.OpLogs[i][0])
			break
		}
	}
	res, err := Audit(prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("duplicated log entry must be rejected")
	}
}

func TestAuditRejectsWrongOpCount(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(20), 4)
	rep := art.srv.Reports()
	for rid, m := range rep.OpCounts {
		if m > 0 {
			rep.OpCounts[rid] = m - 1
			break
		}
	}
	res, err := Audit(prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("wrong op count must be rejected")
	}
}

func TestAuditRejectsOmittedRequestFromGroups(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(12), 2)
	rep := art.srv.Reports()
	for tag, rids := range rep.Groups {
		if len(rids) > 0 {
			rep.Groups[tag] = rids[1:]
			break
		}
	}
	res, err := Audit(prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("omitting a request from the groups must be rejected")
	}
	if !strings.Contains(res.Reason, "not re-executed") {
		t.Logf("reason: %s", res.Reason)
	}
}

func TestAuditRejectsWrongGrouping(t *testing.T) {
	// Move a request into a group with a different control flow.
	prog := compileApp(t)
	inputs := []trace.Input{
		{Script: "visit", Cookie: map[string]string{"user": "alice"}},
		{Script: "visit", Cookie: map[string]string{"user": "alice"}},
		{Script: "list"},
	}
	tr, art := serveWorkload(t, prog, inputs, 1)
	rep := art.srv.Reports()
	// Find the list group and a visit group; move the list rid into the
	// visit group.
	var listTag, visitTag uint64
	for tag, script := range rep.Scripts {
		if script == "list" {
			listTag = tag
		} else if script == "visit" {
			visitTag = tag
		}
	}
	if listTag == 0 || visitTag == 0 {
		t.Fatal("missing expected groups")
	}
	rep.Groups[visitTag] = append(rep.Groups[visitTag], rep.Groups[listTag]...)
	delete(rep.Groups, listTag)
	delete(rep.Scripts, listTag)
	res, err := Audit(prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("wrong grouping must be rejected")
	}
}

func TestAuditRejectsForgedNonDet(t *testing.T) {
	prog := compileApp(t)
	inputs := []trace.Input{{Script: "now"}, {Script: "now"}}
	tr, art := serveWorkload(t, prog, inputs, 1)
	rep := art.srv.Reports()
	// Forge an out-of-range mt_rand result.
	forged := false
	for rid := range rep.NonDet {
		for i := range rep.NonDet[rid] {
			if rep.NonDet[rid][i].Fn == "mt_rand" {
				rep.NonDet[rid][i].Value = lang.EncodeValue(lang.Value(int64(9999)))
				forged = true
			}
		}
	}
	if !forged {
		t.Fatal("no mt_rand record found")
	}
	res, err := Audit(prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("out-of-range nondet must be rejected")
	}
}

func TestAuditRejectsUnbalancedTrace(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(5), 1)
	tr.Events = tr.Events[:len(tr.Events)-1] // drop final response
	res, err := Audit(prog, tr, art.srv.Reports(), art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("unbalanced trace must be rejected")
	}
}

func TestAuditRejectsDuplicateObjectIdentity(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(10), 1)
	rep := art.srv.Reports()
	if len(rep.Objects) == 0 {
		t.Fatal("no objects")
	}
	// Split the first object's log into two logs with the same identity.
	rep.Objects = append(rep.Objects, rep.Objects[0])
	rep.OpLogs = append(rep.OpLogs, nil)
	res, err := Audit(prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("duplicate object identity must be rejected")
	}
}

func TestAuditFinalStateMatchesServer(t *testing.T) {
	// After an accepted audit, the migrated final DB state must equal
	// the server's actual final state.
	prog := compileApp(t)
	inputs := []trace.Input{
		{Script: "post", Post: map[string]string{"title": "a"}},
		{Script: "post", Post: map[string]string{"title": "b"}},
		{Script: "vote", Get: map[string]string{"id": "1"}},
	}
	tr, art := serveWorkload(t, prog, inputs, 1)
	res := mustAudit(t, prog, tr, art)
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
	final, err := res.FinalDB.MigrateFinal()
	if err != nil {
		t.Fatal(err)
	}
	want, err := art.srv.Store.DB.Exec(`SELECT id, title, votes FROM posts ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	var posts *sqlmini.Table
	for _, tbl := range final {
		if tbl.Name == "posts" {
			posts = tbl
		}
	}
	if posts == nil {
		t.Fatal("migrated state has no posts table")
	}
	if len(want.Rows) != len(posts.Rows) {
		t.Fatalf("row counts: server %d, migrated %d", len(want.Rows), len(posts.Rows))
	}
	for i := range want.Rows {
		for j, col := range want.Cols {
			if got := posts.Rows[i][posts.ColIndex(col)]; want.Rows[i][j] != got {
				t.Fatalf("row %d col %s: server %v, migrated %v", i, col, want.Rows[i][j], got)
			}
		}
	}
}

func TestAuditSmallMaxGroupChunks(t *testing.T) {
	prog := compileApp(t)
	inputs := []trace.Input{}
	for i := 0; i < 20; i++ {
		inputs = append(inputs, trace.Input{Script: "list"})
	}
	tr, art := serveWorkload(t, prog, inputs, 1)
	res, err := Audit(prog, tr, art.srv.Reports(), art.snap, Options{MaxGroup: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("chunked audit rejected: %s", res.Reason)
	}
}

func TestAuditEmptyTrace(t *testing.T) {
	prog := compileApp(t)
	srv := server.New(prog, server.Options{Record: true})
	snap := srv.Snapshot()
	res, err := Audit(prog, srv.Trace(), srv.Reports(), snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("empty trace must be accepted: %s", res.Reason)
	}
}
