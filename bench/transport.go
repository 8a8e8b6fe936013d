package main

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// endpointKinds are the fleet endpoints the counting transport tells
// apart, by URL path; anything else (the chain listing) is "other".
var endpointKinds = []string{"chunk", "manifest", "init", "verdict", "lease", "other"}

func endpointKind(path string) string {
	switch {
	case strings.Contains(path, "/chunk/"):
		return "chunk"
	case strings.HasSuffix(path, "/manifest"):
		return "manifest"
	case strings.HasSuffix(path, "/init"):
		return "init"
	case strings.HasSuffix(path, "/verdict"):
		return "verdict"
	case strings.HasSuffix(path, "/lease"):
		return "lease"
	}
	return "other"
}

// endpointCount is what crossed the wire for one endpoint kind: calls,
// request plus response body bytes, and nanoseconds spent inside
// RoundTrip (until the response headers arrive).
type endpointCount struct {
	calls, bytes, busyNS atomic.Int64
}

// countingTransport is the fleet workers' http.RoundTripper. It counts
// body bytes in both directions per endpoint kind and, when the tracer
// is on, records one span per round trip under parent.
type countingTransport struct {
	next   http.RoundTripper
	tr     *tracer
	parent int
	counts map[string]*endpointCount // one entry per endpointKinds, fixed at construction
}

func newCountingTransport(next http.RoundTripper, tr *tracer, parent int) *countingTransport {
	c := &countingTransport{next: next, tr: tr, parent: parent, counts: make(map[string]*endpointCount)}
	for _, k := range endpointKinds {
		c.counts[k] = &endpointCount{}
	}
	return c
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := endpointKind(req.URL.Path)
	ec := c.counts[kind]
	sp := c.tr.begin("fleet.roundtrip."+kind, "", c.parent)
	resp, err := c.next.RoundTrip(req)
	ec.busyNS.Add(int64(c.tr.end(sp)))
	ec.calls.Add(1)
	// Every fleet request with a body is built from a byte slice, so
	// its length is known up front.
	if req.ContentLength > 0 {
		ec.bytes.Add(req.ContentLength)
	}
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &ec.bytes}
	return resp, nil
}

// totals sums calls, body bytes and time inside RoundTrip over every
// endpoint kind.
func (c *countingTransport) totals() (calls, bytes int64, busy time.Duration) {
	for _, ec := range c.counts {
		calls += ec.calls.Load()
		bytes += ec.bytes.Load()
		busy += time.Duration(ec.busyNS.Load())
	}
	return calls, bytes, busy
}

// countingBody adds every byte read through it to n.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
