package fleet

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"orochi/internal/cas"
	"orochi/internal/epoch"
	"orochi/internal/object"
	"orochi/internal/verifier"
)

// CoordinatorOptions configures a fleet coordinator.
type CoordinatorOptions struct {
	// LeaseTimeout is how long a worker may hold an epoch without
	// activity before the lease is reassigned (default 2m). An init
	// request renews it, and so does the renewal a worker sends every
	// third of it while it audits (Lease.RenewMS).
	LeaseTimeout time.Duration
	// CrossCheck is the fraction of epochs, in [0, 1], whose verdict
	// is believed only once crossCheckQuorum leases agree on it (0 =
	// none, 1 = every epoch). Epochs are sampled deterministically from
	// their manifest digest, so reruns pick the same epochs.
	CrossCheck float64
	// Key is the shared fleet HMAC key; empty disables signing.
	Key []byte
	// To bounds the audit to epochs 1..To (0 = every sealed epoch).
	To int64
	// RetryMS is the wait hint returned when no lease is available
	// (default 300).
	RetryMS int
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 2 * time.Minute
	}
	if o.RetryMS <= 0 {
		o.RetryMS = 300
	}
	return o
}

// crossCheckQuorum is how many agreeing verdicts a cross-checked epoch
// needs before one is published.
const crossCheckQuorum = 2

// CoordinatorStats is a point-in-time snapshot of the fleet counters
// surfaced on /-/metrics.
type CoordinatorStats struct {
	WorkersSeen          int
	LeasesActive         int
	LeasesReassigned     int64
	EpochsDecided        int
	EpochsCrossChecked   int64
	CrossCheckMismatches int64
	BadSignaturePosts    int64
	StaleVerdicts        int64
	// InitMismatches counts verdicts discarded because the initial state
	// they were audited from is not the state the ledger published for
	// the epoch before; 0 on an honest fleet.
	InitMismatches int64
	// EpochsInFlight counts the epochs past the ledger's next that hold
	// a lease or an unpublished verdict; MaxEpochsInFlight is the most
	// there ever were at once.
	EpochsInFlight    int
	MaxEpochsInFlight int
	// FetchedBytes and CacheHitBytes are logical (inflated) chunk bytes,
	// as workers report them: pulled from the artifact server, and pinned
	// by a manifest but served from a worker's cache. WireBytes is what
	// the fetched chunks cost on the wire, in their at-rest form.
	FetchedBytes  int64
	CacheHitBytes int64
	WireBytes     int64
	// StatesDerived counts the epoch final states the coordinator
	// derived and filed (deriveLoop); StateDeriveTime is the wall time
	// that took, summed.
	StatesDerived   int64
	StateDeriveTime time.Duration
	Done            bool
	Broken          bool
}

// activeLease is one outstanding assignment.
type activeLease struct {
	id       string
	epoch    int64
	worker   string
	cross    bool
	deadline time.Time
}

// epochState tracks one sealed epoch through lease → verdict(s) →
// published decision.
type epochState struct {
	s      *epoch.Sealed
	cross  bool // sampled for cross-checking
	need   int  // verdicts required (1, or crossCheckQuorum when cross)
	active map[string]*activeLease
	// posted holds validated, not-yet-published verdicts.
	posted []*VerdictPost
	// final is the epoch's final state as the coordinator derived it,
	// refs into the chain store; nil until deriveLoop has filed it.
	final []cas.Ref
}

// outstanding is how many verdicts are already secured or in flight.
func (st *epochState) outstanding() int { return len(st.active) + len(st.posted) }

// activeWorker reports whether worker currently holds a lease on this
// epoch (a cross-check replica must come from a different in-flight
// assignment, though a worker may re-audit an epoch it already posted).
func (st *epochState) activeWorker(worker string) bool {
	for _, l := range st.active {
		if l.worker == worker {
			return true
		}
	}
	return false
}

// Coordinator drives the chain's epoch.Ledger with remote executors: it
// hands out lease-based epoch assignments to workers, lowest epoch
// first, collects their verdicts (a quorum for cross-checked epochs),
// and publishes them to the ledger in chain order. Each epoch's final
// state it derives itself from the chain's own reports (deriveLoop), so
// epoch N+1 is audited from N's state as soon as the coordinator has
// redone N, and all leased epochs re-execute at once; N+1's verdict is
// published only if the state it names is the one the ledger published
// for N (advanceLocked). The ledger is the in-process auditor's, so the
// digests, the decision log (-explain, the console, restart
// rehydration), compacted adoption and checkpoints are the same code
// either way.
//
// The epoch set is fixed at construction: a fleet audit runs against a
// chain that is not being written (the CLI holds the chain's exclusive
// audit lock), so epochs sealed later are a different audit.
//
// Lock discipline: c.mu guards the lease tables and serializes the
// ledger's writers, and is held only for bookkeeping plus the two small
// fsynced writes a published decision costs (its decisions.jsonl line
// and its checkpoint ref list). Everything sized by an epoch or a
// state — the read of an epoch's reports, the redo, encoding and filing
// of its state — runs without it, in deriveLoop, so deriving a state
// never parks a worker's request.
type Coordinator struct {
	dir    string
	opts   CoordinatorOptions
	ledger *epoch.Ledger
	store  cas.Store                            // the chain's chunk store: where derived states land
	now    func() time.Time                     // test hook
	after  func(time.Duration) <-chan time.Time // test hook: the init long-poll's timeout
	// beforeDerive, when set, runs before deriveLoop derives epoch n's
	// final state (test hook: holds a derivation back).
	beforeDerive func(n int64)

	// ctx ends deriveLoop (cancelled when the audit finishes or the
	// coordinator closes); kick wakes it to look for work again;
	// deriving waits for it to end.
	ctx      context.Context
	cancel   context.CancelFunc
	kick     chan struct{}
	deriving sync.WaitGroup

	mu       sync.Mutex
	states   map[int64]*epochState // every sealed epoch under To
	maxKnown int64                 // highest of them
	wake     chan struct{}         // closed and replaced whenever an init long-poll should look again
	leases   map[string]*activeLease
	workers  map[string]time.Time // worker name → last seen
	finished bool
	err      error // internal fault that aborted the audit
	done     chan struct{}
	// leasedTo is the highest epoch leased this run: deriveLoop derives
	// epoch n's final state only once a later epoch needs it, or n holds
	// an ACCEPT to publish with it.
	leasedTo int64
	// underivable is the first epoch whose final state could not be
	// derived (0: none yet), and why: damaged or missing artifacts, a
	// redo that rejects, an unreadable checkpoint. No state past it is
	// derived; its own audit decides it.
	underivable    int64
	underivableWhy string

	leasesReassigned     int64
	epochsCrossChecked   int64
	crossCheckMismatches int64
	badSignaturePosts    int64
	staleVerdicts        int64
	initMismatches       int64
	maxInFlight          int
	fetchedBytes         int64
	cacheHitBytes        int64
	wireBytes            int64
	statesDerived        int64
	stateDeriveTime      time.Duration
}

// NewCoordinator opens the chain's decision log, scans its sealed
// epochs, and resumes after the contiguous decided prefix — the local
// auditor's rehydration (epoch.NewLedger) with From computed: an
// accepted prefix continues from its last checkpoint, a stored REJECT
// leaves the chain broken (re-audit past one with the single-process
// auditor's -from), and a fresh chain starts at epoch 1. A chain of
// another format generation is refused (epoch.ErrChainFormat) before
// its decision log is touched, and so is a CrossCheck outside [0, 1]
// or NaN.
func NewCoordinator(dir string, opts CoordinatorOptions) (*Coordinator, error) {
	if !(opts.CrossCheck >= 0 && opts.CrossCheck <= 1) {
		return nil, fmt.Errorf("fleet: cross-check fraction %v is outside [0, 1]", opts.CrossCheck)
	}
	opts = opts.withDefaults()
	if err := epoch.CheckChainFormat(dir); err != nil {
		return nil, err
	}
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		return nil, err
	}
	log, err := epoch.OpenDecisionLog(dir)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		dir:     dir,
		opts:    opts,
		store:   store,
		now:     time.Now,
		after:   time.After,
		kick:    make(chan struct{}, 1),
		states:  make(map[int64]*epochState),
		wake:    make(chan struct{}),
		leases:  make(map[string]*activeLease),
		workers: make(map[string]time.Time),
		done:    make(chan struct{}),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		log.Close()
		return nil, err
	}
	for _, s := range sealed {
		if opts.To > 0 && s.Number > opts.To {
			continue
		}
		st := &epochState{s: s, active: make(map[string]*activeLease)}
		st.cross = c.crossFor(s)
		st.need = 1
		if st.cross {
			st.need = crossCheckQuorum
		}
		c.states[s.Number] = st
		c.maxKnown = max(c.maxKnown, s.Number)
	}
	from, accepted := int64(1), true
	for ; accepted && (opts.To == 0 || from <= opts.To); from++ {
		d, ok := log.Get(from)
		if !ok {
			break
		}
		accepted = d.Accepted
	}
	var init epoch.State
	if from > 1 && accepted && c.states[from] != nil {
		// More epochs to audit: the hand-off needs the last accepted
		// epoch's verified final snapshot. Its checkpoint already is the
		// ref list workers are handed; the chunks stay where they are
		// until deriveLoop needs the state itself.
		if init.Refs, err = epoch.LoadCheckpointRefs(dir, from-1); err != nil {
			log.Close()
			return nil, fmt.Errorf("fleet: resuming at epoch %d needs epoch %d's checkpoint: %w", from, from-1, err)
		}
	}
	c.ledger = epoch.NewLedger(dir, log, from, init, true)
	c.mu.Lock()
	c.advanceLocked()
	c.mu.Unlock()
	c.deriving.Add(1)
	go c.deriveLoop(c.ledger.Next(), c.ledger.Init())
	return c, nil
}

// crossFor deterministically samples an epoch for cross-checking from
// its manifest digest, so reruns and restarts pick the same epochs.
func (c *Coordinator) crossFor(s *epoch.Sealed) bool {
	if c.opts.CrossCheck <= 0 || s.Err != nil || s.Compacted {
		return false
	}
	if c.opts.CrossCheck >= 1 {
		return true
	}
	if len(s.ManifestSHA) < 8 {
		return false
	}
	v, err := strconv.ParseUint(s.ManifestSHA[:8], 16, 64)
	if err != nil {
		return false
	}
	return float64(v)/float64(1<<32) < c.opts.CrossCheck
}

// Handler returns the coordinator's HTTP surface (mount beside the
// artifact server's under Prefix+"/").
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+Prefix+"/lease", c.handleLease)
	mux.HandleFunc("POST "+Prefix+"/verdict", c.handleVerdict)
	mux.HandleFunc("GET "+Prefix+"/epoch/{n}/init", c.handleInit)
	return mux
}

// maxPostBytes bounds request bodies and init responses; a REJECT's
// forensics dominate.
const maxPostBytes = 16 << 20

func (c *Coordinator) readSigned(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPostBytes+1))
	if err != nil || int64(len(body)) > maxPostBytes {
		http.Error(w, "bad request body", http.StatusBadRequest)
		return nil, false
	}
	if !VerifySig(c.opts.Key, body, r.Header.Get(SigHeader)) {
		c.mu.Lock()
		c.badSignaturePosts++
		c.mu.Unlock()
		http.Error(w, "bad fleet signature", http.StatusForbidden)
		return nil, false
	}
	return body, true
}

func (c *Coordinator) respondJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	signResponse(w, c.opts.Key, body)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readSigned(w, r)
	if !ok {
		return
	}
	var req LeaseRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Worker == "" {
		http.Error(w, "bad lease request", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.workers[req.Worker] = c.now()
	c.expireLocked()
	if req.Renew != "" {
		if l := c.leases[req.Renew]; l != nil && l.worker == req.Worker {
			l.deadline = c.now().Add(c.opts.LeaseTimeout)
		}
		c.mu.Unlock()
		c.respondJSON(w, LeaseResponse{})
		return
	}
	if l := c.leases[req.Abandoned]; l != nil && l.worker == req.Worker {
		c.dropLeaseLocked(l.id)
	}
	resp := LeaseResponse{}
	if c.finished {
		resp.Done = true
	} else if l := c.grantLocked(req.Worker); l != nil {
		resp.Lease = l
		c.noteInFlightLocked()
	} else {
		resp.RetryMS = c.opts.RetryMS
	}
	c.mu.Unlock()
	c.respondJSON(w, resp)
}

// grantLocked leases the lowest epoch that has neither a lease nor its
// verdict quorum. Compacted epochs are decided by the ledger (never
// leased); a gap in the chain or a damaged manifest stops the walk —
// nothing past either can be decided this run.
func (c *Coordinator) grantLocked(worker string) *Lease {
	for n := c.ledger.Next(); n <= c.maxKnown; n++ {
		st := c.states[n]
		if st == nil || st.s.Err != nil {
			return nil
		}
		if st.s.Compacted || st.outstanding() >= st.need || st.activeWorker(worker) {
			continue
		}
		var prevSHA string
		if prev := c.states[n-1]; prev != nil {
			prevSHA = prev.s.ManifestSHA
		}
		l := &activeLease{
			id:       newLeaseID(),
			epoch:    n,
			worker:   worker,
			cross:    st.cross && st.outstanding() > 0,
			deadline: c.now().Add(c.opts.LeaseTimeout),
		}
		st.active[l.id] = l
		c.leases[l.id] = l
		lease := &Lease{
			ID:              l.id,
			Epoch:           n,
			ManifestSHA:     st.s.ManifestSHA,
			PrevManifestSHA: prevSHA,
			InitManifest:    n == 1,
			CrossCheck:      l.cross,
			DeadlineUnix:    l.deadline.Unix(),
			RenewMS:         (c.opts.LeaseTimeout / 3).Milliseconds(),
		}
		if n > c.leasedTo {
			c.leasedTo = n
			c.kickDeriver()
		}
		return lease
	}
	return nil
}

// expireLocked reassigns timed-out leases: the lease is dropped, so the
// next worker asking for work picks the epoch up. A post on a dropped
// lease is stale and answered 409.
func (c *Coordinator) expireLocked() {
	now := c.now()
	for id, l := range c.leases {
		if now.After(l.deadline) {
			c.dropLeaseLocked(id)
			c.leasesReassigned++
		}
	}
}

// dropLeaseLocked forgets a lease that will post no verdict.
func (c *Coordinator) dropLeaseLocked(id string) {
	l := c.leases[id]
	delete(c.leases, id)
	if st := c.states[l.epoch]; st != nil {
		delete(st.active, id)
	}
}

// maxInitWait caps how long an init request is held open waiting for
// the previous epoch's final state.
const maxInitWait = 15 * time.Second

// initWait is how long one init request may be held: short of
// maxInitWait, and well inside the lease it renewed on arrival.
func (c *Coordinator) initWait() time.Duration {
	return min(maxInitWait, c.opts.LeaseTimeout/3)
}

// handleInit serves the initial state a leased epoch is to be audited
// from, as a ref list into the chain store: the ledger's trusted state
// when the epoch is the ledger's next, otherwise the final state the
// coordinator derived for the epoch before. When there is none yet the
// request is held until deriveLoop files it (a long poll: the hand-off
// reaches the worker when it happens, not on the worker's next tick)
// and answered 202 only after initWait. 410 means the lease is gone —
// expired, the audit over (the chain broke before this epoch, or an
// internal fault), or an earlier epoch short of its verdicts has no
// lease, which nobody would pick up while every worker waits here for a
// state it blocks — and the worker must abandon the assignment.
func (c *Coordinator) handleInit(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.ParseInt(r.PathValue("n"), 10, 64)
	if err != nil || n <= 0 {
		http.Error(w, "bad epoch number", http.StatusBadRequest)
		return
	}
	leaseID := r.URL.Query().Get("lease")
	var timeout <-chan time.Time
	for {
		c.mu.Lock()
		c.expireLocked()
		l := c.leases[leaseID]
		if l != nil && l.epoch == n && c.orphanBeforeLocked(n) {
			c.dropLeaseLocked(leaseID)
			l = nil
		}
		if l == nil || l.epoch != n || c.finished {
			c.mu.Unlock()
			http.Error(w, "lease gone", http.StatusGone)
			return
		}
		l.deadline = c.now().Add(c.opts.LeaseTimeout) // activity renews
		c.workers[l.worker] = c.now()
		var refs []cas.Ref
		if n == c.ledger.Next() {
			refs = c.ledger.Init().Refs
		} else if prev := c.states[n-1]; prev != nil {
			refs = prev.final
		}
		wake := c.wake
		c.mu.Unlock()
		if refs != nil {
			c.respondJSON(w, InitResponse{Epoch: n, Snapshot: refs})
			return
		}
		if timeout == nil {
			timeout = c.after(c.initWait())
		}
		select {
		case <-wake:
		case <-timeout:
			w.WriteHeader(http.StatusAccepted)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// orphanBeforeLocked reports whether an epoch between the ledger's next
// and n is short of its verdicts with no lease on it.
func (c *Coordinator) orphanBeforeLocked(n int64) bool {
	for m := c.ledger.Next(); m < n; m++ {
		st := c.states[m]
		if !st.s.Compacted && len(st.active) == 0 && len(st.posted) < st.need {
			return true
		}
	}
	return false
}

// handleVerdict records a worker's verdict on its lease. The body is
// the JSON of a VerdictPost and nothing else: a post with a field the
// coordinator does not know — a state of the worker's own, say — is
// refused, so no worker post carries state.
func (c *Coordinator) handleVerdict(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readSigned(w, r)
	if !ok {
		return
	}
	var p VerdictPost
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&p)
	if _, trail := dec.Token(); err == nil && trail != io.EOF {
		err = errors.New("trailing bytes after the verdict")
	}
	if err != nil {
		http.Error(w, "bad verdict post: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if status, msg := c.checkPostLocked(&p); status != 0 {
		http.Error(w, msg, status)
		return
	}
	// Consume the lease and stash the verdict.
	st := c.states[p.Epoch]
	delete(c.leases, p.LeaseID)
	delete(st.active, p.LeaseID)
	st.posted = append(st.posted, &p)
	c.fetchedBytes += p.FetchedBytes
	if hit := p.LogicalBytes - p.FetchedBytes; hit > 0 {
		c.cacheHitBytes += hit
	}
	c.wireBytes += p.WireBytes
	if p.Accepted {
		c.kickDeriver() // its publish needs the epoch's final state
	}
	c.advanceLocked()
	c.noteInFlightLocked()
	ack := []byte("recorded\n")
	signResponse(w, c.opts.Key, ack)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ack)
}

// checkPostLocked validates a post against the lease table and the
// chain. It returns 0 when the post may be recorded, otherwise the HTTP
// status and message to refuse it with.
func (c *Coordinator) checkPostLocked(p *VerdictPost) (int, string) {
	c.expireLocked()
	c.workers[p.Worker] = c.now()
	l := c.leases[p.LeaseID]
	st := c.states[p.Epoch]
	if l == nil || l.epoch != p.Epoch || l.worker != p.Worker || st == nil {
		// Expired (reassigned) lease, or a post for an epoch the worker
		// does not hold: ignored, never a verdict.
		c.staleVerdicts++
		return http.StatusConflict, "stale or unknown lease"
	}
	if p.ManifestSHA != st.s.ManifestSHA {
		// The worker audited different manifest bytes than the chain
		// holds; the post proves nothing about this epoch. Keep the
		// lease — the worker is confused, not slow.
		return http.StatusBadRequest, "manifest digest does not match chain"
	}
	return 0, ""
}

// kickDeriver wakes deriveLoop to look for work; a wake already pending
// covers this one.
func (c *Coordinator) kickDeriver() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// wantStateLocked reports whether epoch n's final state is needed: a
// later epoch was leased (the state is its initial state, or the source
// of it), or n holds an ACCEPT that publishes it. So no state is derived
// past the epochs leased when a chain breaks.
func (c *Coordinator) wantStateLocked(n int64) bool {
	st := c.states[n]
	if st == nil {
		return false
	}
	return c.leasedTo > n || slices.ContainsFunc(st.posted, func(p *VerdictPost) bool { return p.Accepted })
}

// deriveLoop derives the final state of every epoch from next on, in
// chain order: Phase 2 of the audit (verifier.FinalState) over the
// epoch's reports, read from the chain's own store with
// epoch.LoadState's checks, from the state derived for the epoch before
// — for the first, base, the ledger's initial state (the zero State:
// the epoch's manifest pins its own). An epoch's reports are read once
// it is leased, so the worker that waits on its state later does not
// wait on that read too; the state itself is derived and filed only
// once it is wanted (wantStateLocked), and published only with an
// ACCEPT of its epoch, whose audit started from the same state and
// redid the same reports. The loop stops at the first epoch whose state
// does not derive (its audit REJECTs it), when the audit finishes, and
// on an internal fault — a base state that cannot be read, or a store
// that cannot take a state — which fails the audit.
func (c *Coordinator) deriveLoop(next int64, base epoch.State) {
	defer c.deriving.Done()
	prev := base.Snap
	for n := next; ; n++ {
		s, ok := c.awaitEpoch(func() bool { return c.leasedTo >= n || c.wantStateLocked(n) }, n)
		if !ok {
			return
		}
		start := time.Now()
		ld, why := c.loadInputs(s)
		spent := time.Since(start)
		if _, ok := c.awaitEpoch(func() bool { return c.wantStateLocked(n) }, n); !ok {
			return
		}
		if c.beforeDerive != nil {
			c.beforeDerive(n)
		}

		start = time.Now()
		var err error
		if prev == nil && base.Refs != nil {
			if prev, err = c.readState(base.Refs); err != nil {
				err = fmt.Errorf("fleet: reading epoch %d's initial state: %w", n, err)
			}
		}
		var refs []cas.Ref
		if err == nil && why == "" {
			prev, refs, why, err = c.derive(s, ld, prev)
		}
		spent += time.Since(start)
		c.mu.Lock()
		switch {
		case c.finished || c.ctx.Err() != nil:
		case err != nil:
			c.failLocked(err)
		case why != "":
			c.underivable, c.underivableWhy = n, why
			c.advanceLocked()
		default:
			c.recordStateLocked(n, refs, spent)
		}
		stop := c.finished || c.ctx.Err() != nil || c.underivable != 0
		c.mu.Unlock()
		if stop {
			return
		}
	}
}

// awaitEpoch waits until ready (called with c.mu held) reports true and
// returns epoch n, or returns false once the audit is over or the
// coordinator closes.
func (c *Coordinator) awaitEpoch(ready func() bool, n int64) (*epoch.Sealed, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.finished && !ready() {
		c.mu.Unlock()
		select {
		case <-c.kick:
		case <-c.ctx.Done():
		}
		c.mu.Lock()
		if c.ctx.Err() != nil {
			return nil, false
		}
	}
	if c.finished {
		return nil, false
	}
	return c.states[n].s, true
}

// loadInputs reads what fixes epoch s's final state besides the state
// before it: its reports and, for the chain's first epoch, its
// manifest's initial state, with epoch.LoadState's checks (nil for a
// compacted epoch, whose state is its checkpoint). A non-empty why
// means they do not load: the state does not derive.
func (c *Coordinator) loadInputs(s *epoch.Sealed) (*epoch.Loaded, string) {
	switch {
	case s.Err != nil:
		return nil, "damaged manifest"
	case s.Compacted:
		return nil, ""
	}
	ld, err := epoch.LoadState(s, c.store)
	if err != nil {
		return nil, err.Error() // an *epoch.IntegrityError, as LoadFrom's
	}
	return ld, ""
}

// derive computes epoch s's final state from its inputs ld and prev, the
// state derived for the epoch before (nil for the chain's first epoch,
// which starts from its manifest's own), and files it in the chain
// store. A compacted epoch's state is its checkpoint, the one the
// ledger adopts, already filed. A non-empty why means the state does
// not derive — the epoch's own audit REJECTs it; an error is an
// internal fault.
func (c *Coordinator) derive(s *epoch.Sealed, ld *epoch.Loaded, prev *object.Snapshot) (snap *object.Snapshot, refs []cas.Ref, why string, err error) {
	if s.Compacted {
		if refs, err = epoch.LoadCheckpointRefs(c.dir, s.Number); err == nil {
			snap, err = c.readState(refs)
		}
		if err != nil {
			return nil, nil, err.Error(), nil
		}
		return snap, refs, "", nil
	}
	if prev == nil {
		if prev = ld.Init; prev == nil {
			return nil, nil, "no trusted initial state", nil
		}
	}
	snap, rej, err := verifier.FinalState(c.ctx, prev, ld.Reports, verifier.Options{})
	if err != nil || rej != nil {
		if rej != nil {
			why = rej.Reason
		}
		return nil, nil, why, err
	}
	raw, err := snap.EncodeRaw()
	if err == nil {
		refs, err = cas.WriteBlob(c.store, cas.DefaultChunker, raw)
	}
	if err != nil {
		return nil, nil, "", fmt.Errorf("fleet: filing epoch %d's final state: %w", s.Number, err)
	}
	return snap, refs, "", nil
}

// recordStateLocked makes refs epoch n's final state: init requests
// waiting on it are answered, and an ACCEPT waiting on it is published.
func (c *Coordinator) recordStateLocked(n int64, refs []cas.Ref, spent time.Duration) {
	c.states[n].final = refs
	c.statesDerived++
	c.stateDeriveTime += spent
	c.wakeLocked()
	c.advanceLocked()
}

// readState reads a state filed as refs into the chain store.
func (c *Coordinator) readState(refs []cas.Ref) (*object.Snapshot, error) {
	raw, err := cas.ReadBlob(c.store, refs)
	if err != nil {
		return nil, err
	}
	return object.DecodeSnapshotRaw(raw)
}

// advanceLocked publishes decisions strictly in chain order: what the
// ledger can decide by itself (damaged manifests, compacted adoptions)
// is decided on the spot; leased epochs wait for their verdict quorum
// and, to ACCEPT, for the final state deriveLoop files.
// It stops at the first epoch that is not ready, and finishes the audit
// when the chain is broken, exhausted, bounded by To, or gapped (the
// ledger's Next then names an unsealed epoch with sealed ones past it —
// nothing past a gap can be audited, there is no hand-off).
func (c *Coordinator) advanceLocked() {
	for !c.finished {
		st := c.states[c.ledger.Next()]
		if !c.ledger.ChainAccepted() || st == nil {
			c.finishLocked()
			return
		}
		v, final, err := c.ledger.DecideLocally(st.s)
		if err != nil {
			c.failLocked(err)
			return
		}
		if v == nil {
			c.discardForeignInitLocked(st)
			if len(st.posted) == 0 {
				return // waiting on a worker
			}
			v, final = c.verdictFromPosts(st)
			if v == nil {
				return // waiting on replicas or on the epoch's final state
			}
		}
		c.publishLocked(st, *v, final)
	}
}

// discardForeignInitLocked is the fleet's soundness check, and its only
// one: a verdict for the ledger's next epoch is believed only if the
// initial state it was audited from is the state the ledger published
// for the epoch before (for epoch 1, the manifest's own, named by no
// refs). A verdict audited from any other state is discarded and
// counted, and the epoch is leased again. So every verdict, forensics
// record and chain digest published is the one the sequential walk
// would give.
func (c *Coordinator) discardForeignInitLocked(st *epochState) {
	init := c.ledger.Init().Refs
	kept := st.posted[:0]
	for _, p := range st.posted {
		if slices.Equal(p.InitRefs, init) {
			kept = append(kept, p)
			continue
		}
		c.initMismatches++
	}
	if len(kept) < len(st.posted) {
		// Workers held on later epochs look again: this one needs a lease.
		c.wakeLocked()
	}
	st.posted = kept
}

// verdictFromPosts builds the ledger verdict of a leased epoch from the
// posts in hand, with the final state an ACCEPT publishes — the one the
// coordinator derived — or returns nil while a cross-checked epoch still
// waits for replicas or an ACCEPT for that state. The coordinator
// trusts only the audit outcome and its evidence; epoch identity and
// counts come from its own manifest walk, the chain digest from the
// ledger. Replicas that disagree are a REJECT naming both workers, and
// so is an ACCEPT of an epoch whose final state does not derive.
func (c *Coordinator) verdictFromPosts(st *epochState) (*epoch.Verdict, epoch.State) {
	v := epoch.NewVerdict(st.s)
	if st.cross {
		if reason, f := c.crossMismatchLocked(st); f != nil {
			c.epochsCrossChecked++
			c.crossCheckMismatches++
			v = v.Reject(reason, f)
			return &v, epoch.State{}
		}
		if len(st.posted) < st.need {
			return nil, epoch.State{}
		}
	}
	p := st.posted[0]
	if p.Accepted && st.final == nil && c.underivable != st.s.Number {
		return nil, epoch.State{}
	}
	if st.cross {
		c.epochsCrossChecked++
	}
	if p.Accepted && st.final == nil {
		// Honest workers never get here: the worker's own redo of the same
		// reports from the same state fails as the coordinator's did.
		v = v.Reject(fmt.Sprintf("worker %s returned ACCEPT for epoch %d, whose final state does not derive: %s",
			p.Worker, st.s.Number, c.underivableWhy), &verifier.Forensics{Phase: epoch.PhaseEpochLoad, Check: "final-state"})
		return &v, epoch.State{}
	}
	v.Accepted, v.Reason, v.Forensics = p.Accepted, p.Reason, p.Forensics
	v.AuditTime, v.Stats = p.Stats.Total, p.Stats
	if !v.Accepted {
		return &v, epoch.State{}
	}
	return &v, epoch.State{Refs: st.final}
}

// crossMismatchLocked compares the posted replica verdicts of a
// cross-checked epoch. Any disagreement on outcome, reason or forensics
// is a REJECT with forensics naming both workers — per the paper's
// trust model the executor earns no benefit of the doubt, and a
// disagreeing fleet cannot vouch for the epoch.
func (c *Coordinator) crossMismatchLocked(st *epochState) (string, *verifier.Forensics) {
	base := st.posted[0]
	for _, other := range st.posted[1:] {
		if agreeing(base, other) {
			continue
		}
		reason := fmt.Sprintf("cross-check disagreement on epoch %d: worker %s and worker %s returned different verdicts",
			st.s.Number, base.Worker, other.Worker)
		return reason, &verifier.Forensics{
			Phase: epoch.PhaseEpochLoad,
			Check: "cross-check",
			Detail: fmt.Sprintf("worker %s: %s; worker %s: %s",
				base.Worker, describePost(base), other.Worker, describePost(other)),
		}
	}
	return "", nil
}

func agreeing(a, b *VerdictPost) bool {
	if a.Accepted != b.Accepted || a.Reason != b.Reason {
		return false
	}
	af, _ := json.Marshal(a.Forensics)
	bf, _ := json.Marshal(b.Forensics)
	return string(af) == string(bf)
}

func describePost(p *VerdictPost) string {
	if p.Accepted {
		return "ACCEPT"
	}
	return fmt.Sprintf("REJECT (%s)", p.Reason)
}

// publishLocked hands an epoch's verdict to the ledger — which extends
// the chain digest, records the decision durably, threads the snapshot
// hand-off forward (final is the derived final state as refs into the
// chain store, zero on REJECT) and writes its checkpoint — and retires
// the epoch's leases; on REJECT the chain is broken and every
// outstanding lease goes. Either way held init requests are woken: the
// next epoch's state is there, or their lease is gone.
func (c *Coordinator) publishLocked(st *epochState, v epoch.Verdict, final epoch.State) {
	defer c.wakeLocked()
	retire := st.active
	if !v.Accepted {
		retire = c.leases
	}
	for id := range retire {
		c.dropLeaseLocked(id)
	}
	st.posted, st.final = nil, nil
	var ck *epoch.CheckpointError
	if err := c.ledger.Publish(v, final); err != nil && !errors.As(err, &ck) {
		// The ledger is the product; a log that cannot take verdicts
		// aborts the audit as an internal fault, not a REJECT. A
		// checkpoint that cannot be written stays parked in the ledger,
		// which retries it with every later publish and at the finish.
		c.failLocked(err)
	}
}

// failLocked aborts the audit on an internal fault, which Wait reports.
func (c *Coordinator) failLocked(err error) {
	c.err = err
	c.finishLocked()
}

func (c *Coordinator) finishLocked() {
	if c.finished {
		return
	}
	c.finished = true
	c.cancel()                      // deriveLoop stops
	_ = c.ledger.FlushCheckpoints() // what still fails is reported by Warnings
	close(c.done)
	c.wakeLocked()
}

// noteInFlightLocked records the in-flight depth's high-water mark.
func (c *Coordinator) noteInFlightLocked() {
	c.maxInFlight = max(c.maxInFlight, c.inFlightLocked())
}

// inFlightLocked counts the epochs past the ledger's next that hold a
// lease or an unpublished verdict.
func (c *Coordinator) inFlightLocked() int {
	n := 0
	for e := c.ledger.Next() + 1; e <= c.maxKnown; e++ {
		if st := c.states[e]; st != nil && len(st.active)+len(st.posted) > 0 {
			n++
		}
	}
	return n
}

// wakeLocked makes every held init request look at the state again.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Wait blocks until the audit finishes (every sealed epoch decided, the
// chain broken, or an internal fault) or ctx is cancelled. It returns
// the internal fault, if any; a REJECT is a verdict, not an error.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.done:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Ledger exposes the chain ledger the coordinator feeds.
func (c *Coordinator) Ledger() *epoch.Ledger { return c.ledger }

// Verdicts returns a copy of the ledger so far, in chain order.
func (c *Coordinator) Verdicts() []epoch.Verdict { return c.ledger.Verdicts() }

// ChainAccepted reports whether every decided epoch accepted.
func (c *Coordinator) ChainAccepted() bool { return c.ledger.ChainAccepted() }

// ChainSHA returns the running ledger digest.
func (c *Coordinator) ChainSHA() string { return c.ledger.ChainSHA() }

// Warnings returns the non-fatal problems the audit ended with: the
// checkpoints that stayed unwritten through every retry, each of which
// a later -from resume, coordinator restart or compaction will miss.
func (c *Coordinator) Warnings() []string {
	var out []string
	for _, ck := range c.ledger.UnwrittenCheckpoints() {
		out = append(out, fmt.Sprintf("epoch %d: checkpoint write failed: %v", ck.Epoch, ck.Err))
	}
	return out
}

// Stats snapshots the fleet counters.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CoordinatorStats{
		WorkersSeen:          len(c.workers),
		LeasesActive:         len(c.leases),
		LeasesReassigned:     c.leasesReassigned,
		EpochsDecided:        len(c.ledger.Verdicts()),
		EpochsCrossChecked:   c.epochsCrossChecked,
		CrossCheckMismatches: c.crossCheckMismatches,
		BadSignaturePosts:    c.badSignaturePosts,
		StaleVerdicts:        c.staleVerdicts,
		InitMismatches:       c.initMismatches,
		EpochsInFlight:       c.inFlightLocked(),
		MaxEpochsInFlight:    c.maxInFlight,
		FetchedBytes:         c.fetchedBytes,
		CacheHitBytes:        c.cacheHitBytes,
		WireBytes:            c.wireBytes,
		StatesDerived:        c.statesDerived,
		StateDeriveTime:      c.stateDeriveTime,
		Done:                 c.finished,
		Broken:               !c.ledger.ChainAccepted(),
	}
}

// Close stops deriving states and releases the decision log.
func (c *Coordinator) Close() error {
	c.cancel()
	c.deriving.Wait()
	return c.ledger.Decisions().Close()
}

func newLeaseID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}
