package verifier

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
)

// TestSharedArraysAcrossGoroutines: an array-valued register and an
// array-valued KV entry of the initial state are read by many requests
// at once on the server, and by every Phase-3 worker in the audit; each
// reader writes its own copy. Readers only ever read the arrays'
// shared marks, so under -race this fails if a published array is left
// unmarked (two goroutines would race to mark it) or if any write
// reaches a stored value in place (the other readers would see it).
// Every run also writes into, sorts and iterates the program's constant
// array literals, which all runs share, and echoes one of them last: a
// write that reached a literal in place would show in every later
// response.
func TestSharedArraysAcrossGoroutines(t *testing.T) {
	prog, err := lang.Compile(map[string]string{"read": `
$lit = array("a" => array(3, 1), "b" => "x");
$lit["a"][] = intval($_GET["id"]);
sort($lit["a"]);
$lit["b"] .= $_GET["id"];
foreach (array("p" => array(1), "q" => 2) as $k => $v) { $lit[$k] = $v; $lit["p"][] = $k; }
$n = intval($_GET["n"]);
for ($i = 0; $i < $n % 8; $i++) { echo "."; }
$cfg = apc_get("cfg");
$prefs = session_get("prefs");
$cfg["seen"][] = $_GET["id"];
$prefs["theme"] = "t" . $_GET["id"];
foreach ($cfg["items"] as $i => $item) { $cfg["items"][$i] = $item . $_GET["id"]; }
unset($prefs["nested"]["lang"]);
sort($cfg["items"]);
echo json_encode($cfg) . json_encode($prefs) . json_encode($lit);
echo "|" . json_encode(apc_get("cfg")) . json_encode(session_get("prefs")) . json_encode(array("a" => array(3, 1), "b" => "x"));
`})
	if err != nil {
		t.Fatal(err)
	}
	// build returns fresh, unmarked copies of the initial arrays.
	build := func() (cfg, prefs *lang.Array) {
		key := func(s string) lang.Key { k, _ := lang.NormalizeKey(s); return k }
		items := lang.NewArray()
		for _, it := range []string{"b", "a", "c"} {
			items.Append(it)
		}
		cfg = lang.NewArray()
		cfg.Set(key("items"), items)
		cfg.Set(key("seen"), lang.NewArray())
		nested := lang.NewArray()
		nested.Set(key("lang"), "en")
		nested.Set(key("tz"), "UTC")
		prefs = lang.NewArray()
		prefs.Set(key("nested"), nested)
		return cfg, prefs
	}
	const want = `|{"items":["b","a","c"],"seen":[]}{"nested":{"lang":"en","tz":"UTC"}}{"a":[3,1],"b":"x"}`

	srv := server.New(prog, server.Options{Record: true})
	cfg, prefs := build()
	srv.SetupKV("cfg", cfg)
	srv.Store.RegisterWrite("prefs", prefs, nil, "", 0)
	init := srv.Snapshot()
	// The audit starts from unmarked copies, as a hand-built snapshot
	// holds them: the verifier must mark what its workers share.
	init.KV["cfg"], init.Registers["prefs"] = build()

	var inputs []trace.Input
	for i := 0; i < 96; i++ {
		inputs = append(inputs, trace.Input{Script: "read", Get: map[string]string{
			"n": fmt.Sprint(i % 8), "id": fmt.Sprint(i),
		}})
	}
	if err := srv.ServeAllContext(context.Background(), inputs, 16); err != nil {
		t.Fatal(err)
	}
	tr := srv.Trace()
	for _, ev := range tr.Events {
		if ev.Kind == trace.Response && !strings.HasSuffix(ev.Body, want) {
			t.Fatalf("a request saw another request's write: %s", ev.Body)
		}
	}
	res, err := AuditContext(context.Background(), prog, tr, srv.Reports(), init, Options{Workers: 8, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest run rejected: %s", res.Reason)
	}
	if res.Stats.InstrMulti == 0 {
		t.Fatal("no group re-executed multivalently; the test lost its lanes")
	}
}

// TestAppendedStringsAcrossGoroutines: a string built by `.=` grows in
// place in its buffer's spare capacity, and the writer keeps appending
// after it has published the string to a register and a KV entry, while
// other requests read it and append to their own copies. Appends only
// ever write past a view's length and only in the run that grew the
// buffer, so under -race this fails if a reader appends into the
// writer's buffer (two readers would write the same bytes) or if the
// writer writes below a published view; every reader must also see
// exactly the bytes that were published.
func TestAppendedStringsAcrossGoroutines(t *testing.T) {
	prog, err := lang.Compile(map[string]string{
		"write": `
$s = str_repeat("=", 60) . "w" . $_GET["id"];
for ($i = 0; $i < 12; $i++) { $s .= "-" . $i; }
apc_set("log", $s);
session_set("log", $s);
for ($i = 0; $i < 400; $i++) { $s .= "+" . $i; }
echo strlen($s) . substr($s, -4);
`,
		"read": `
$v = apc_get("log");
$w = session_get("log");
$v0 = $v;
$w0 = $w;
$n = intval($_GET["n"]);
for ($i = 0; $i < $n % 8; $i++) { $v .= "." . $_GET["id"]; $w .= $v; }
echo $v0 . "|" . $w0 . "|" . (substr($v, 0, strlen($v0)) === $v0 && substr($w, 0, strlen($w0)) === $w0 ? "kept" : "torn");
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(prog, server.Options{Record: true})
	srv.SetupKV("log", "init")
	srv.Store.RegisterWrite("log", "init", nil, "", 0)
	init := srv.Snapshot()

	var inputs []trace.Input
	for i := 0; i < 96; i++ {
		script := "read"
		if i%4 == 0 {
			script = "write"
		}
		inputs = append(inputs, trace.Input{Script: script, Get: map[string]string{
			"n": fmt.Sprint(i), "id": fmt.Sprint(i),
		}})
	}
	if err := srv.ServeAllContext(context.Background(), inputs, 16); err != nil {
		t.Fatal(err)
	}
	published := regexp.MustCompile(`^(init|={60}w[0-9]+(-[0-9]+){12})$`)
	tr := srv.Trace()
	for _, ev := range tr.Events {
		if ev.Kind != trace.Response || !strings.Contains(ev.Body, "|") {
			continue
		}
		f := strings.Split(ev.Body, "|")
		if !published.MatchString(f[0]) || !published.MatchString(f[1]) {
			t.Fatalf("a reader saw bytes nobody published: %s", ev.Body)
		}
		if f[2] != "kept" {
			t.Fatalf("appending to a copy changed the published string: %s", ev.Body)
		}
	}
	res, err := AuditContext(context.Background(), prog, tr, srv.Reports(), init, Options{Workers: 8, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest run rejected: %s", res.Reason)
	}
	if res.Stats.InstrMulti == 0 {
		t.Fatal("no group re-executed multivalently; the test lost its lanes")
	}
}
