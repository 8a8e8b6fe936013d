// Package httpfront is the HTTP-native front door of the reproduction.
// The paper's deployment model (§2) places a trusted collector *in
// front of* a real web server, capturing requests and responses as they
// flow; this package maps that model onto net/http so the executor
// composes with the standard Go HTTP ecosystem:
//
//   - Handler turns a recording Server into an http.Handler — the
//     one-call front door used by cmd/orochi-serve, the examples, and
//     the httptest end-to-end suite.
//   - Collector is reverse-proxy-style middleware playing the trusted
//     collector's role in front of *any* handler: it records the
//     request into the trace, forwards it downstream, and records the
//     response bytes the client actually receives.
//   - Exec runs requests on the executor without touching a collector,
//     so a Collector-wrapped stack records each request exactly once.
//
// The mapping between HTTP and the model's Input is canonical and
// shared by servers, clients, and tests: the URL path names the script,
// query parameters become $_GET, form fields $_POST, and cookies
// $_COOKIE (RequestToInput / NewRequest are inverses). The trace
// records response bodies only, so status codes are likewise derived
// canonically from the body (StatusOf): the fault rendering the
// verifier reproduces maps to 500, everything else to 200.
package httpfront

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"

	"orochi/internal/server"
	"orochi/internal/trace"
)

// ControlPrefix marks URL paths outside the audited surface. The
// Collector middleware passes them through unrecorded, so operational
// endpoints (the console's /-/metrics and /-/api/...) can live behind
// the same front door without polluting the trace.
const ControlPrefix = "/-/"

// RequestToInput maps an HTTP request onto the model's Input: the URL
// path (less its surrounding slashes) names the script — "index" when
// empty — query parameters become $_GET, POST form fields $_POST, and
// cookies $_COOKIE. Repeated keys keep their first value; the model's
// superglobals are flat string maps.
func RequestToInput(r *http.Request) (trace.Input, error) {
	script := strings.Trim(r.URL.Path, "/")
	if script == "" {
		script = "index"
	}
	in := trace.Input{Script: script, Get: map[string]string{}, Post: map[string]string{}, Cookie: map[string]string{}}
	for k, vs := range r.URL.Query() {
		if len(vs) > 0 {
			in.Get[k] = vs[0]
		}
	}
	if r.Method == http.MethodPost {
		if err := r.ParseForm(); err != nil {
			return in, err
		}
		for k, vs := range r.PostForm {
			if len(vs) > 0 {
				in.Post[k] = vs[0]
			}
		}
	}
	for _, c := range r.Cookies() {
		in.Cookie[c.Name] = c.Value
	}
	return in, nil
}

// NewRequest is RequestToInput's inverse: it builds the HTTP request
// that maps back onto in when received — GET with a query string, or a
// form POST when in.Post is non-empty. base is the server's URL
// ("http://127.0.0.1:8090"); the load generator in cmd/orochi-serve and
// the end-to-end tests share it.
func NewRequest(base string, in trace.Input) (*http.Request, error) {
	target := strings.TrimSuffix(base, "/") + "/" + in.Script
	if len(in.Get) > 0 {
		q := url.Values{}
		for k, v := range in.Get {
			q.Set(k, v)
		}
		target += "?" + q.Encode()
	}
	var req *http.Request
	var err error
	if len(in.Post) > 0 {
		form := url.Values{}
		for k, v := range in.Post {
			form.Set(k, v)
		}
		req, err = http.NewRequest(http.MethodPost, target, strings.NewReader(form.Encode()))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, target, nil)
	}
	if err != nil {
		return nil, err
	}
	for k, v := range in.Cookie {
		req.AddCookie(&http.Cookie{Name: k, Value: v})
	}
	return req, nil
}

// StatusOf returns the canonical HTTP status for an executor response
// body. The trace records bodies only, so the status must be a pure
// function of the body: the canonical fault rendering (lang.RenderFault,
// "HTTP 500: ...") maps to 500 Internal Server Error, everything else
// to 200 OK. Serving and re-verification therefore agree on the status
// line without it being audit evidence.
func StatusOf(body string) int {
	if strings.HasPrefix(body, "HTTP 500") {
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

// WriteResponse renders an executor response body to w with its
// canonical status code.
func WriteResponse(w http.ResponseWriter, body string) {
	if code := StatusOf(body); code != http.StatusOK {
		w.WriteHeader(code)
	}
	_, _ = io.WriteString(w, body)
}

// recordedKey carries the collector's view of a request down the
// handler chain.
type recordedKey struct{}

type recorded struct {
	rid string
	in  trace.Input
}

// WithRecorded returns a context carrying the requestID and parsed
// input the collector recorded for this request. Exec uses it to run
// exactly the input that entered the trace, under the trace's rid.
func WithRecorded(ctx context.Context, rid string, in trace.Input) context.Context {
	return context.WithValue(ctx, recordedKey{}, recorded{rid: rid, in: in})
}

// RecordedFrom extracts the collector-recorded (rid, input) pair from
// ctx, reporting whether a Collector upstream recorded this request.
func RecordedFrom(ctx context.Context) (rid string, in trace.Input, ok bool) {
	rec, ok := ctx.Value(recordedKey{}).(recorded)
	return rec.rid, rec.in, ok
}

// capture buffers a downstream handler's response so the Collector can
// record it before a byte leaves for the client — the middlebox sits in
// front, and the trace must hold exactly what the client then sees.
type capture struct {
	header http.Header
	code   int
	body   strings.Builder
}

func newCapture() *capture { return &capture{header: make(http.Header)} }

func (c *capture) Header() http.Header { return c.header }

func (c *capture) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
}

func (c *capture) Write(p []byte) (int, error) {
	if c.code == 0 {
		c.code = http.StatusOK
	}
	return c.body.Write(p)
}

// Collector wraps next with the trusted collector's role (§2): every
// request under the audited surface is recorded into c on arrival, the
// downstream response is captured whole, recorded as the request's
// response event, and only then forwarded to the client. Paths under
// ControlPrefix bypass recording entirely.
//
// The recorded body is exactly the bytes next wrote — if a misbehaving
// layer below tampers with a response, the trace holds the tampered
// bytes the client saw, and the audit will hold the executor to them.
// A request the middleware cannot parse is refused with 400 before
// anything enters the executor, so it never appears in the trace.
//
// The downstream handler receives the recorded (rid, input) pair via
// the request context (RecordedFrom); Exec uses it so each request is
// recorded exactly once, by the outermost collector.
func Collector(c *trace.Collector, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, ControlPrefix) {
			next.ServeHTTP(w, r)
			return
		}
		in, err := RequestToInput(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rid := c.BeginRequest(in)
		cap := newCapture()
		next.ServeHTTP(cap, r.WithContext(WithRecorded(r.Context(), rid, in)))
		body := cap.body.String()
		c.EndRequest(rid, body)
		for k, vs := range cap.header {
			w.Header()[k] = vs
		}
		if cap.code != 0 && cap.code != http.StatusOK {
			w.WriteHeader(cap.code)
		}
		_, _ = io.WriteString(w, body)
	})
}

// Exec returns an http.Handler that executes requests on srv. Under a
// Collector it runs the recorded input under the trace's rid (without
// touching srv's embedded collector — the middleware already recorded
// the request); standalone it falls back to srv.Handle, which records
// into the embedded collector, so Exec alone is still a complete,
// auditable front end. Paths under ControlPrefix answer 404 without
// touching the executor: they are operational surface, and letting
// them fall through would record every health-check probe into the
// trace as an unknown-script fault.
//
// Note that server.Options.TamperResponse is a Handle-level hook and
// does not apply on the Collector path; at the HTTP layer a misbehaving
// executor is modelled by composing a tampering middleware between
// Collector and Exec (see the end-to-end tests).
func Exec(srv *server.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rid, in, ok := RecordedFrom(r.Context()); ok {
			WriteResponse(w, srv.Process(rid, in))
			return
		}
		if strings.HasPrefix(r.URL.Path, ControlPrefix) {
			// Mount real control endpoints on a mux in front (as
			// cmd/orochi-serve does); the executor itself has none.
			http.NotFound(w, r)
			return
		}
		in, err := RequestToInput(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_, body := srv.Handle(in)
		WriteResponse(w, body)
	})
}

// Handler is the one-call HTTP front door: srv's embedded collector in
// front of its executor, composed from Collector and Exec. Mount it on
// any mux or serve it directly; audit artifacts come from srv.Trace()
// and srv.Reports() exactly as with in-process srv.Handle calls.
func Handler(srv *server.Server) http.Handler {
	return Collector(srv.Collector, Exec(srv))
}

// WithControl composes the complete front door: control mounted under
// ControlPrefix (typically internal/console's handler) and audited
// everywhere else. The audited surface still refuses ControlPrefix
// paths the control handler leaves unrouted — the outer mux only ever
// sends them to control, whose own mux answers 404 for strays.
func WithControl(control, audited http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle(ControlPrefix, control)
	mux.Handle("/", audited)
	return mux
}
