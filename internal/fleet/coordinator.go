package fleet

import (
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
	"orochi/internal/verifier"
)

// CoordinatorOptions configures a fleet coordinator.
type CoordinatorOptions struct {
	// LeaseTimeout is how long a worker may hold an epoch without
	// activity before the lease is reassigned (default 2m). Any
	// authenticated touch — an init request, a candidate post — renews
	// it.
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
	// the epoch before (a candidate that lost); 0 on an honest fleet.
	InitMismatches int64
	// EpochsInFlight counts the epochs past the ledger's next that hold
	// a lease, a candidate or an unpublished verdict; MaxEpochsInFlight
	// is the most there ever were at once.
	EpochsInFlight    int
	MaxEpochsInFlight int
	// FetchedBytes and CacheHitBytes are logical (inflated) chunk bytes,
	// as workers report them: pulled from the artifact server, and pinned
	// by a manifest but served from a worker's cache. WireBytes is what
	// the fetched chunks cost on the wire, in their at-rest form.
	FetchedBytes  int64
	CacheHitBytes int64
	WireBytes     int64
	// SnapshotChunksPosted counts candidate-snapshot chunks workers
	// shipped; SnapshotChunksReused counts the refs in those posts that
	// named a chunk the chain store already held.
	SnapshotChunksPosted int64
	SnapshotChunksReused int64
	Done                 bool
	Broken               bool
}

// activeLease is one outstanding assignment.
type activeLease struct {
	id       string
	epoch    int64
	worker   string
	cross    bool
	deadline time.Time
}

// epochState tracks one sealed epoch through lease → candidate →
// verdict(s) → published decision.
type epochState struct {
	s      *epoch.Sealed
	cross  bool // sampled for cross-checking
	need   int  // verdicts required (1, or crossCheckQuorum when cross)
	active map[string]*activeLease
	// cands holds the candidate final states posted for this epoch, in
	// post order, one per lease: ref lists whose every chunk is in the
	// chain store. The first is what the next epoch's init hands out
	// while this one is undecided.
	cands []*VerdictPost
	// posted holds validated, not-yet-published verdicts; an ACCEPT's
	// FinalSnapshot is its lease's candidate.
	posted []*VerdictPost
}

// candidate returns the candidate the lease posted, or nil.
func (st *epochState) candidate(leaseID string) *VerdictPost {
	for _, p := range st.cands {
		if p.LeaseID == leaseID {
			return p
		}
	}
	return nil
}

// dropCandidate forgets the candidate the lease posted, if any.
func (st *epochState) dropCandidate(leaseID string) {
	st.cands = slices.DeleteFunc(st.cands, func(p *VerdictPost) bool { return p.LeaseID == leaseID })
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
// first, collects their candidates and verdicts (a quorum of verdicts
// for cross-checked epochs), and publishes verdicts to the ledger in
// chain order. Epoch N+1 is audited from a candidate posted for epoch N
// as soon as N's redo has fixed one, so all leased epochs re-execute at
// once; its verdict is published only if that candidate is the final
// state the ledger published for N (advanceLocked). The ledger is the
// in-process auditor's, so the digests, the decision log (-explain, the
// console, restart rehydration), compacted adoption and checkpoints are
// the same code either way.
//
// The epoch set is fixed at construction: a fleet audit runs against a
// chain that is not being written (the CLI holds the chain's exclusive
// audit lock), so epochs sealed later are a different audit.
//
// Lock discipline: c.mu guards the lease tables and serializes the
// ledger's writers, and is held only for bookkeeping plus the two small
// fsynced writes a published decision costs (its decisions.jsonl line
// and its checkpoint ref list). Everything sized by a snapshot — parsing
// a post, verifying and storing its chunks — happens before the lock is
// taken, so one worker's hand-off never parks another worker's request.
type Coordinator struct {
	opts   CoordinatorOptions
	ledger *epoch.Ledger
	store  *cas.FS                              // the chain's chunk store: where posted snapshots land
	now    func() time.Time                     // test hook
	after  func(time.Duration) <-chan time.Time // test hook: the init long-poll's timeout

	mu       sync.Mutex
	states   map[int64]*epochState // every sealed epoch under To
	maxKnown int64                 // highest of them
	wake     chan struct{}         // closed and replaced whenever an init long-poll should look again
	leases   map[string]*activeLease
	workers  map[string]time.Time // worker name → last seen
	finished bool
	err      error // internal fault that aborted the audit
	done     chan struct{}

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
	snapshotChunksPosted int64
	snapshotChunksReused int64
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
		opts:    opts,
		store:   store,
		now:     time.Now,
		after:   time.After,
		states:  make(map[int64]*epochState),
		wake:    make(chan struct{}),
		leases:  make(map[string]*activeLease),
		workers: make(map[string]time.Time),
		done:    make(chan struct{}),
	}
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
		// ref list workers are handed; the chunks stay where they are.
		if init.Refs, err = epoch.LoadCheckpointRefs(dir, from-1); err != nil {
			log.Close()
			return nil, fmt.Errorf("fleet: resuming at epoch %d needs epoch %d's checkpoint: %w", from, from-1, err)
		}
	}
	c.ledger = epoch.NewLedger(dir, log, from, init, true)
	c.mu.Lock()
	c.advanceLocked()
	c.mu.Unlock()
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

// maxPostBytes bounds request bodies; a verdict's shipped snapshot
// chunks dominate.
const maxPostBytes = 256 << 20

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
		return &Lease{
			ID:              l.id,
			Epoch:           n,
			ManifestSHA:     st.s.ManifestSHA,
			PrevManifestSHA: prevSHA,
			InitManifest:    n == 1,
			CrossCheck:      l.cross,
			DeadlineUnix:    l.deadline.Unix(),
		}
	}
	return nil
}

// expireLocked reassigns timed-out leases: the lease and its candidate
// are dropped, so the next worker asking for work picks the epoch up. A
// post on a dropped lease is stale and answered 409.
func (c *Coordinator) expireLocked() {
	now := c.now()
	for id, l := range c.leases {
		if now.After(l.deadline) {
			c.dropLeaseLocked(id)
			c.leasesReassigned++
		}
	}
}

// dropLeaseLocked forgets a lease that will post no verdict, and the
// candidate it posted.
func (c *Coordinator) dropLeaseLocked(id string) {
	l := c.leases[id]
	delete(c.leases, id)
	if st := c.states[l.epoch]; st != nil {
		delete(st.active, id)
		st.dropCandidate(id)
	}
}

// maxInitWait caps how long an init request is held open waiting for
// the previous epoch's candidate.
const maxInitWait = 15 * time.Second

// initWait is how long one init request may be held: short of
// maxInitWait, and well inside the lease it renewed on arrival.
func (c *Coordinator) initWait() time.Duration {
	return min(maxInitWait, c.opts.LeaseTimeout/3)
}

// handleInit serves the initial state a leased epoch is to be audited
// from, as a ref list into the chain store: the ledger's trusted state
// when the epoch is the ledger's next, otherwise the first candidate
// posted for the epoch before. When there is none yet the request is
// held until one is posted (a long poll: the hand-off reaches the
// worker when it happens, not on the worker's next tick) and answered
// 202 only after initWait. 410 means the lease is gone — expired, the
// chain broke before this epoch, or an earlier epoch short of its
// verdicts has no lease, which nobody would ever pick up while every
// worker waits here — and the worker must abandon the assignment.
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
		if l == nil || l.epoch != n {
			c.mu.Unlock()
			http.Error(w, "lease gone", http.StatusGone)
			return
		}
		l.deadline = c.now().Add(c.opts.LeaseTimeout) // activity renews
		c.workers[l.worker] = c.now()
		var refs []cas.Ref
		if n == c.ledger.Next() {
			refs = c.ledger.Init().Refs
		} else if prev := c.states[n-1]; prev != nil && len(prev.cands) > 0 {
			refs = prev.cands[0].FinalSnapshot
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

// handleVerdict records a worker's post on its lease. A candidate
// (VerdictPost.Candidate) ships the epoch's candidate final state, the
// one its verdict will vouch for, and wakes the init requests waiting on
// it; a verdict carries no state of its own — an ACCEPT's final state is
// its lease's candidate — and names the initial state it was audited
// from.
func (c *Coordinator) handleVerdict(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readSigned(w, r)
	if !ok {
		return
	}
	p, chunks, err := DecodeVerdict(body)
	if err != nil {
		http.Error(w, "bad verdict post: "+err.Error(), http.StatusBadRequest)
		return
	}
	if p.Candidate != (len(p.FinalSnapshot) > 0) {
		http.Error(w, "bad verdict post: a candidate carries a final snapshot, a verdict none", http.StatusBadRequest)
		return
	}
	// Validate against the lease before the snapshot is touched, so a
	// late or confused post costs no store IO; then file the snapshot's
	// chunks with the lock released; then validate again, because the
	// lease may have expired meanwhile, and record.
	c.mu.Lock()
	status, msg := c.checkPostLocked(p)
	c.mu.Unlock()
	if status != 0 {
		http.Error(w, msg, status)
		return
	}
	var posted, reused int
	if p.Candidate {
		if posted, reused, err = c.storeSnapshot(p, chunks); err != nil {
			// Keep the lease: nothing was believed, and the worker may
			// yet post a snapshot that resolves.
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if status, msg := c.checkPostLocked(p); status != 0 {
		http.Error(w, msg, status)
		return
	}
	st := c.states[p.Epoch]
	if p.Candidate {
		st.dropCandidate(p.LeaseID)
		st.cands = append(st.cands, p)
		c.leases[p.LeaseID].deadline = c.now().Add(c.opts.LeaseTimeout)
		c.snapshotChunksPosted += int64(posted)
		c.snapshotChunksReused += int64(reused)
		c.wakeLocked()
	} else {
		if p.Accepted {
			cand := st.candidate(p.LeaseID)
			if cand == nil {
				http.Error(w, "accepted verdict on a lease that posted no candidate", http.StatusBadRequest)
				return
			}
			p.FinalSnapshot = cand.FinalSnapshot
		}
		// Consume the lease and stash the verdict.
		delete(c.leases, p.LeaseID)
		delete(st.active, p.LeaseID)
		st.posted = append(st.posted, p)
		c.fetchedBytes += p.FetchedBytes
		if hit := p.LogicalBytes - p.FetchedBytes; hit > 0 {
			c.cacheHitBytes += hit
		}
		c.wireBytes += p.WireBytes
		c.advanceLocked()
	}
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

// storeSnapshot files a candidate's final snapshot in the chain store.
// Every ref must resolve: a chunk the store holds, or one shipped
// earlier in the same list, is reused; a shipped one is verified
// against the ref it claims and written as the at-rest bytes the worker
// sent (cas.FS.PutStored); and one that is neither refuses the post,
// before anything is filed — it would leave the next epoch without its
// initial state. The shipped chunks are verified and filed in parallel;
// if any fails, the post is refused naming the lowest such index. It
// runs without c.mu: it is the only part of a hand-off whose cost grows
// with the snapshot.
func (c *Coordinator) storeSnapshot(p *VerdictPost, chunks [][]byte) (posted, reused int, err error) {
	var file []int              // entries of p.Shipped to verify and file
	filing := map[string]bool{} // their digests
	k := 0                      // next entry of p.Shipped, which DecodeVerdict checked ascends
	for idx, ref := range p.FinalSnapshot {
		shipped := k < len(p.Shipped) && p.Shipped[k] == idx
		switch {
		case filing[ref.SHA256] || c.store.Has(ref.SHA256):
			reused++
		case shipped:
			filing[ref.SHA256] = true
			file = append(file, k)
		default:
			return 0, 0, fmt.Errorf("final snapshot chunk %d (%.12s) was not shipped and is not in the chain store", idx, ref.SHA256)
		}
		if shipped {
			k++
		}
	}
	err = forEach(len(file), func(j int) error {
		k := file[j]
		idx := p.Shipped[k]
		if err := c.store.PutStored(p.FinalSnapshot[idx].SHA256, chunks[k]); err != nil {
			return fmt.Errorf("final snapshot chunk %d: %v", idx, err)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return len(file), reused, nil
}

// advanceLocked publishes decisions strictly in chain order: what the
// ledger can decide by itself (damaged manifests, compacted adoptions)
// is decided on the spot; leased epochs wait for their verdict quorum.
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
				return // waiting on replicas
			}
		}
		c.publishLocked(st, *v, final)
	}
}

// discardForeignInitLocked is the fleet's soundness check, and its only
// one: a verdict for the ledger's next epoch is believed only if the
// initial state it was audited from is the state the ledger published
// for the epoch before (for epoch 1, the manifest's own, named by no
// refs). A verdict audited from any other candidate is discarded and
// counted, with the candidate its lease posted, and the epoch is leased
// again. So every verdict, forensics record and chain digest published
// is the one the sequential walk would give.
func (c *Coordinator) discardForeignInitLocked(st *epochState) {
	init := c.ledger.Init().Refs
	kept := st.posted[:0]
	for _, p := range st.posted {
		if slices.Equal(p.InitRefs, init) {
			kept = append(kept, p)
			continue
		}
		c.initMismatches++
		st.dropCandidate(p.LeaseID)
	}
	if len(kept) < len(st.posted) {
		// Workers held on later epochs look again: this one needs a lease.
		c.wakeLocked()
	}
	st.posted = kept
}

// verdictFromPosts builds the ledger verdict of a leased epoch from the
// posts in hand, or returns nil while a cross-checked epoch still waits
// for replicas. The coordinator trusts only the audit outcome and its
// evidence; epoch identity and counts come from its own manifest walk,
// the chain digest from the ledger. Replicas that disagree are a REJECT
// naming both workers.
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
		c.epochsCrossChecked++
	}
	p := st.posted[0]
	v.Accepted, v.Reason, v.Forensics = p.Accepted, p.Reason, p.Forensics
	v.AuditTime, v.Stats = p.Stats.Total, p.Stats
	return &v, epoch.State{Refs: p.FinalSnapshot}
}

// crossMismatchLocked compares the posted replica verdicts of a
// cross-checked epoch. Any disagreement on outcome, reason, or final
// snapshot (its ref list) is a REJECT with forensics naming both
// workers — per the paper's trust model the executor earns no benefit
// of the doubt, and a disagreeing fleet cannot vouch for the epoch.
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
	if a.Accepted != b.Accepted {
		return false
	}
	if a.Accepted {
		// The raw snapshot form is canonical, so the ref list is the
		// state's identity: honest replicas post the same one.
		return slices.Equal(a.FinalSnapshot, b.FinalSnapshot)
	}
	if a.Reason != b.Reason {
		return false
	}
	af, _ := json.Marshal(a.Forensics)
	bf, _ := json.Marshal(b.Forensics)
	return string(af) == string(bf)
}

func describePost(p *VerdictPost) string {
	switch {
	case !p.Accepted:
		return fmt.Sprintf("REJECT (%s)", p.Reason)
	case len(p.FinalSnapshot) == 0:
		return "ACCEPT (no snapshot)"
	default:
		return fmt.Sprintf("ACCEPT (snapshot %.12s)", p.FinalSnapshot[0].SHA256)
	}
}

// publishLocked hands an epoch's verdict to the ledger — which extends
// the chain digest, records the decision durably, threads the snapshot
// hand-off forward (final is the verified final state as refs into the
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
	st.posted, st.cands = nil, nil
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
	_ = c.ledger.FlushCheckpoints() // what still fails is reported by Warnings
	close(c.done)
	c.wakeLocked()
}

// noteInFlightLocked records the in-flight depth's high-water mark.
func (c *Coordinator) noteInFlightLocked() {
	c.maxInFlight = max(c.maxInFlight, c.inFlightLocked())
}

// inFlightLocked counts the epochs past the ledger's next that hold a
// lease, a candidate or an unpublished verdict.
func (c *Coordinator) inFlightLocked() int {
	n := 0
	for e := c.ledger.Next() + 1; e <= c.maxKnown; e++ {
		if st := c.states[e]; st != nil && len(st.active)+len(st.cands)+len(st.posted) > 0 {
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
		SnapshotChunksPosted: c.snapshotChunksPosted,
		SnapshotChunksReused: c.snapshotChunksReused,
		Done:                 c.finished,
		Broken:               !c.ledger.ChainAccepted(),
	}
}

// Close releases the decision log.
func (c *Coordinator) Close() error { return c.ledger.Decisions().Close() }

func newLeaseID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}
