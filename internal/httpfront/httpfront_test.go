package httpfront

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
)

func compileTestApp(t *testing.T) *lang.Program {
	t.Helper()
	prog, err := lang.Compile(map[string]string{
		"echo":  `echo "get=" . $_GET["a"] . " post=" . $_POST["b"] . " cookie=" . $_COOKIE["c"];`,
		"index": `echo "home";`,
		"boom":  `undefined_function();`,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRequestToInputMapping(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/echo?a=1&a=2&x=y", nil)
	r.AddCookie(&http.Cookie{Name: "c", Value: "choc"})
	in, err := RequestToInput(r)
	if err != nil {
		t.Fatal(err)
	}
	if in.Script != "echo" || in.Get["a"] != "1" || in.Get["x"] != "y" || in.Cookie["c"] != "choc" {
		t.Fatalf("bad mapping: %+v", in)
	}

	form := url.Values{"b": {"two"}}
	r = httptest.NewRequest(http.MethodPost, "/echo", strings.NewReader(form.Encode()))
	r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	in, err = RequestToInput(r)
	if err != nil {
		t.Fatal(err)
	}
	if in.Script != "echo" || in.Post["b"] != "two" {
		t.Fatalf("bad POST mapping: %+v", in)
	}

	// The empty path routes to the "index" script.
	in, err = RequestToInput(httptest.NewRequest(http.MethodGet, "/", nil))
	if err != nil {
		t.Fatal(err)
	}
	if in.Script != "index" {
		t.Fatalf("empty path routed to %q, want index", in.Script)
	}
}

// TestNewRequestRoundTrip pins NewRequest and RequestToInput as
// inverses: any Input pushed through a real HTTP hop maps back onto
// itself.
func TestNewRequestRoundTrip(t *testing.T) {
	inputs := []trace.Input{
		{Script: "view", Get: map[string]string{"page": "p one & two"}},
		{Script: "edit", Get: map[string]string{"page": "x"}, Post: map[string]string{"text": "a=b&c;\nd"}},
		{Script: "whoami", Cookie: map[string]string{"session": "s-1"}},
		{Script: "index"},
	}
	for _, want := range inputs {
		var got trace.Input
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			in, err := RequestToInput(r)
			if err != nil {
				t.Error(err)
			}
			got = in
		}))
		req, err := NewRequest(ts.URL, want)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ts.Client().Do(req); err != nil {
			t.Fatal(err)
		}
		ts.Close()
		if got.Script != want.Script {
			t.Fatalf("script %q round-tripped to %q", want.Script, got.Script)
		}
		for k, v := range want.Get {
			if got.Get[k] != v {
				t.Fatalf("GET %q: got %q want %q", k, got.Get[k], v)
			}
		}
		for k, v := range want.Post {
			if got.Post[k] != v {
				t.Fatalf("POST %q: got %q want %q", k, got.Post[k], v)
			}
		}
		for k, v := range want.Cookie {
			if got.Cookie[k] != v {
				t.Fatalf("cookie %q: got %q want %q", k, got.Cookie[k], v)
			}
		}
	}
}

// TestCanonicalStatusCodes pins the body→status mapping end to end:
// a faulted script serves 500 with the canonical rendering, a healthy
// one serves 200.
func TestCanonicalStatusCodes(t *testing.T) {
	srv := server.New(compileTestApp(t), server.Options{Record: true})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy script served %d, want 200", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted script served %d, want 500", resp.StatusCode)
	}

	// The trace recorded both: request + response per hit.
	if got := srv.Trace().RequestCount(); got != 2 {
		t.Fatalf("trace holds %d requests, want 2", got)
	}
	if err := srv.Trace().Balanced(); err != nil {
		t.Fatal(err)
	}
}

// TestControlPrefixBypassesTrace pins that /-/ paths pass through the
// Collector middleware without entering the audited surface.
func TestControlPrefixBypassesTrace(t *testing.T) {
	col := trace.NewCollector()
	var hits int
	h := Collector(col, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		_, _ = w.Write([]byte("ok"))
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	if _, err := ts.Client().Get(ts.URL + "/-/metrics"); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("control request did not reach the inner handler (hits=%d)", hits)
	}
	if n := col.Trace().Len(); n != 0 {
		t.Fatalf("control request leaked %d events into the trace", n)
	}
}

// TestCollectorRefusesUnparseable pins that a request the middlebox
// cannot capture is refused with 400 before anything enters the
// executor: nothing may appear in the trace for it.
func TestCollectorRefusesUnparseable(t *testing.T) {
	col := trace.NewCollector()
	inner := 0
	h := Collector(col, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { inner++ }))
	ts := httptest.NewServer(h)
	defer ts.Close()

	// An invalid percent-escape in the form body fails ParseForm.
	resp, err := ts.Client().Post(ts.URL+"/edit", "application/x-www-form-urlencoded",
		strings.NewReader("text=%zz"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparseable request served %d, want 400", resp.StatusCode)
	}
	if inner != 0 {
		t.Fatal("unparseable request reached the executor")
	}
	if n := col.Trace().Len(); n != 0 {
		t.Fatalf("refused request left %d events in the trace", n)
	}
}

// TestHandlerControlPathsUnrecorded pins that a bare Handler mount (no
// mux in front) keeps /-/ paths entirely outside the audited surface:
// the Collector skips them AND Exec's fallback must not record them as
// unknown-script faults — a monitor polling /-/metrics must never pollute
// the trace.
func TestHandlerControlPathsUnrecorded(t *testing.T) {
	srv := server.New(compileTestApp(t), server.Options{Record: true})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/-/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare Handler served %d for a control path, want 404", resp.StatusCode)
	}
	if n := srv.Trace().Len(); n != 0 {
		t.Fatalf("control path left %d events in the trace", n)
	}
	if _, reqs := srv.CPU(); reqs != 0 {
		t.Fatalf("control path reached the executor (%d requests processed)", reqs)
	}
}

// TestExecStandaloneRecords pins Exec's fallback path: without a
// Collector upstream it must still record through the server's embedded
// collector, keeping the period auditable.
func TestExecStandaloneRecords(t *testing.T) {
	srv := server.New(compileTestApp(t), server.Options{Record: true})
	ts := httptest.NewServer(Exec(srv))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if srv.Trace().RequestCount() != 1 {
		t.Fatal("standalone Exec did not record into the embedded collector")
	}
}
