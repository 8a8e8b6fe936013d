// Package server implements the executor (§2, §4): it runs the
// application program on concurrent requests against shared objects,
// optionally recording the four report kinds, and supports deliberate
// misbehaviour hooks so tests can exercise the verifier's Soundness.
//
// The server itself is UNTRUSTED in the model; nothing it produces
// (responses or reports) is assumed correct by the verifier.
//
// The per-request hot path is lock-free on server state: statistics are
// atomic counters, each request derives its RNG seed from an atomic
// ticket, and the recorder pointer sits behind an atomic.Pointer so
// SwapRecorder (epoch cuts) never contends with request handling. A
// request loads the recorder pointer once, at the start of execution,
// and uses it throughout — so all of a request's records land in one
// recorder even if a swap races the request (the epoch manager only
// swaps at balanced points, where no request is in flight at all).
package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/trace"
)

// Options configures a server.
type Options struct {
	// Record enables report collection (the OROCHI configuration). When
	// false the server is the legacy baseline.
	Record bool
	// Clock overrides the wall clock for deterministic tests.
	Clock func() time.Time
	// RandSeed seeds the per-server random source for mt_rand.
	RandSeed int64
	// Shards is the lock-stripe count of the object store and the
	// recorder (0 = reports.DefaultShards). More stripes reduce
	// contention between concurrent requests; the recorded reports are
	// identical at every setting (reports.Recorder canonicalizes).
	Shards int
	// TamperResponse, if set, rewrites response bodies after execution —
	// a misbehaving executor. The trace records the tampered response
	// (the collector sees what clients see).
	TamperResponse func(rid, body string) string
	// Tap, if set, is installed on the embedded collector: it observes
	// every trace event in order and may cut audit periods at balanced
	// boundaries. The epoch pipeline (internal/epoch) installs its
	// manager here to cut the live trace into epochs and seal them.
	Tap trace.Tap
}

// Server is one executor instance.
type Server struct {
	Prog      *lang.Program
	Store     *object.Store
	Collector *trace.Collector

	opts Options

	// rec is nil when recording is disabled. It is swapped atomically at
	// epoch boundaries; see SwapRecorder.
	rec atomic.Pointer[reports.Recorder]

	// Hot-path statistics: accumulated handler wall time (ns), request
	// count, and requests currently being processed. Atomics, so stats
	// reads (CPU, InFlight) never contend with serving.
	cpuNanos atomic.Int64
	reqs     atomic.Int64
	inFlight atomic.Int64

	// seedTicket numbers requests; each request's RNG seed is derived
	// from (RandSeed, ticket) without any shared lock.
	seedTicket atomic.Int64
}

// New builds a server for prog.
func New(prog *lang.Program, opts Options) *Server {
	s := &Server{
		Prog:      prog,
		Store:     object.NewStoreShards(opts.Shards),
		Collector: trace.NewCollector(),
		opts:      opts,
	}
	if opts.Record {
		s.rec.Store(reports.NewRecorderShards(opts.Shards))
	}
	if opts.Tap != nil {
		s.Collector.SetTap(opts.Tap)
	}
	return s
}

// Recorder returns the current recorder (nil when recording is
// disabled). The recorder in use can change across audit periods — see
// SwapRecorder — so callers must not cache it across requests.
func (s *Server) Recorder() *reports.Recorder {
	return s.rec.Load()
}

// SwapRecorder replaces the recorder with a fresh one and returns the
// one that recorded the finished period (nil when recording is
// disabled). The caller must invoke it only at a balanced point — no
// requests in flight — or in-flight requests would split their records
// across periods. The epoch manager calls it from the collector's Cut
// hook, where balance holds by construction.
func (s *Server) SwapRecorder() *reports.Recorder {
	if !s.opts.Record {
		return nil
	}
	return s.rec.Swap(reports.NewRecorderShards(s.opts.Shards))
}

// Setup executes SQL statements against the database before the audited
// period begins (schema creation, seed data). Setup state becomes part
// of the initial snapshot handed to the verifier.
func (s *Server) Setup(stmts []string) error {
	for _, q := range stmts {
		if _, err := s.Store.DB.Exec(q); err != nil {
			return fmt.Errorf("server: setup: %w", err)
		}
	}
	return nil
}

// SetupKV seeds the key-value store before the audited period.
func (s *Server) SetupKV(key string, v lang.Value) {
	s.Store.KvSet(key, v, nil, "", 0)
}

// Snapshot captures the current object state; call it at the audit
// boundary, before serving audited requests.
func (s *Server) Snapshot() *object.Snapshot {
	return s.Store.Snapshot()
}

// Handle serves one request end to end: the collector records the
// arrival, the program runs, and the collector records the response. It
// is safe to call from many goroutines (one per in-flight request, as in
// the concurrency model of §3.2).
func (s *Server) Handle(in trace.Input) (rid, body string) {
	rid = s.Collector.BeginRequest(in)
	body = s.Process(rid, in)
	if s.opts.TamperResponse != nil {
		body = s.opts.TamperResponse(rid, body)
	}
	s.Collector.EndRequest(rid, body)
	return rid, body
}

// Process executes the program for one request without touching the
// collector — the execution half of Handle, and the entry point the
// HTTP front end (internal/httpfront) uses when an external Collector
// middleware drives the trace. The in-flight counter lives here so
// InFlight covers every serving path, not just Handle.
func (s *Server) Process(rid string, in trace.Input) string {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	start := time.Now()
	body := s.run(rid, in)
	s.cpuNanos.Add(int64(time.Since(start)))
	s.reqs.Add(1)
	return body
}

// mix64 is the splitmix64 finalizer: it spreads a seed/ticket pair into
// a well-distributed per-request RNG seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *Server) run(rid string, in trace.Input) string {
	rec := s.rec.Load()
	seed := mix64(uint64(s.opts.RandSeed+1) ^ mix64(uint64(s.seedTicket.Add(1))))

	bridge := object.NewBridge(s.Store, rec)
	defer bridge.Close()
	if s.opts.Clock != nil {
		bridge.Clock = s.opts.Clock
	}
	bridge.RandSeed = int64(seed >> 1)

	mode := lang.ModePlain
	if rec != nil {
		mode = lang.ModeRecord
	}
	res, err := lang.Run(s.Prog, lang.Config{
		Mode:   mode,
		Script: in.Script,
		RIDs:   []string{rid},
		Inputs: []lang.RequestInput{{Get: in.Get, Post: in.Post, Cookie: in.Cookie}},
		Bridge: bridge,
	})
	// A faulted request is a first-class, auditable outcome: Run still
	// returned a Result whose digest is folded with the fault site, so
	// the request joins an error group and report M covers the
	// operations it issued before faulting. The recording is therefore
	// identical for completed and faulted requests; only the served
	// body differs — the client receives the canonical rendering, which
	// the verifier will reproduce when it re-executes the group.
	if rec != nil && res != nil {
		rec.RecordGroup(res.Digest, in.Script, rid)
		rec.RecordOpCount(rid, res.OpCount)
	}
	if err != nil {
		return lang.RenderFault(err)
	}
	return res.Output(0)
}

// ServeAllContext handles the inputs with the given concurrency until
// every request completes or ctx is cancelled. It models the open-loop
// client population of the experiments. Cancellation stops launching
// new requests; requests already in flight always run to completion —
// aborting one midway would leave the collector's trace unbalanced and
// the period unauditable — and the method returns ctx.Err() so callers
// can distinguish a drained run from an interrupted one.
func (s *Server) ServeAllContext(ctx context.Context, inputs []trace.Input, concurrency int) error {
	if concurrency < 1 {
		concurrency = 1
	}
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for _, in := range inputs {
		// The explicit check first: when cancellation and a free slot are
		// both ready, select would pick at random, and a cancelled serve
		// must deterministically launch nothing further.
		if ctx.Err() != nil {
			wg.Wait()
			return ctx.Err()
		}
		select {
		case <-ctx.Done():
			wg.Wait()
			return ctx.Err()
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(in trace.Input) {
			defer wg.Done()
			defer func() { <-sem }()
			s.Handle(in)
		}(in)
	}
	wg.Wait()
	return nil
}

// NewPeriod closes the current audit period: the collector restarts and,
// when recording, a fresh recorder replaces the old one (whose reports
// the caller should already have taken via Reports). The server must be
// drained first — in-flight requests would split their records across
// periods (§4.7: "the server must be drained prior to an audit").
func (s *Server) NewPeriod() {
	s.Collector.Reset()
	s.SwapRecorder()
}

// CPU returns the accumulated handler execution time and request count —
// the server-side cost measure of §5.1. Reads are atomic and never
// contend with serving.
func (s *Server) CPU() (time.Duration, int64) {
	return time.Duration(s.cpuNanos.Load()), s.reqs.Load()
}

// InFlight reports the number of requests currently being handled.
func (s *Server) InFlight() int64 {
	return s.inFlight.Load()
}

// Reports finalizes and returns the recorded reports (nil when recording
// is disabled).
func (s *Server) Reports() *reports.Reports {
	rec := s.Recorder()
	if rec == nil {
		return nil
	}
	return rec.Finalize()
}

// Trace returns the collected trace snapshot.
func (s *Server) Trace() *trace.Trace {
	return s.Collector.Trace()
}
