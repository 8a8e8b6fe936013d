package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCountingTransportPerEndpointBytes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		switch endpointKind(r.URL.Path) {
		case "chunk":
			w.Write(bytes.Repeat([]byte("c"), 5000))
		case "lease":
			w.Write([]byte(`{"done":true}`)) // 13 bytes
		case "verdict":
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Write([]byte("chain")) // 5 bytes
		}
	}))
	defer srv.Close()

	tr := newTracer(true)
	root := tr.begin("fleet", "", noParent)
	ct := newCountingTransport(http.DefaultTransport, tr, root.idx)
	client := &http.Client{Transport: ct}
	get := func(path string) {
		t.Helper()
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post := func(path, body string) {
		t.Helper()
		resp, err := client.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get("/-/fleet/chunk/abc")
	get("/-/fleet/chunk/def")
	post("/-/fleet/lease", `{"worker":"w0"}`) // 15 bytes up, 13 down
	post("/-/fleet/verdict", strings.Repeat("v", 300))
	get("/-/fleet/chain")
	tr.end(root)

	want := map[string][2]int64{ // calls, bytes
		"chunk":    {2, 10000},
		"lease":    {1, 28},
		"verdict":  {1, 300},
		"other":    {1, 5},
		"manifest": {0, 0},
		"init":     {0, 0},
	}
	for kind, w := range want {
		ec := ct.counts[kind]
		if ec.calls.Load() != w[0] || ec.bytes.Load() != w[1] {
			t.Errorf("%s: %d calls, %d bytes; want %d, %d", kind, ec.calls.Load(), ec.bytes.Load(), w[0], w[1])
		}
	}
	if calls, bytes, busy := ct.totals(); calls != 5 || bytes != 10333 || busy <= 0 {
		t.Errorf("totals = %d calls, %d bytes, %v busy; want 5, 10333, > 0", calls, bytes, busy)
	}
	trips := 0
	for _, s := range tr.spans[1:] {
		if strings.HasPrefix(s.Name, "fleet.roundtrip.") && s.Parent == root.idx {
			trips++
		}
	}
	if trips != 5 {
		t.Errorf("%d round-trip spans under the fleet span, want 5", trips)
	}
}

func TestEndpointKind(t *testing.T) {
	for path, want := range map[string]string{
		"/-/fleet/chunk/0123":       "chunk",
		"/-/fleet/epoch/3/manifest": "manifest",
		"/-/fleet/epoch/3/init":     "init",
		"/-/fleet/verdict":          "verdict",
		"/-/fleet/lease":            "lease",
		"/-/fleet/chain":            "other",
	} {
		if got := endpointKind(path); got != want {
			t.Errorf("endpointKind(%q) = %q, want %q", path, got, want)
		}
	}
}
