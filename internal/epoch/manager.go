package epoch

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"orochi/internal/cas"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/server"
	"orochi/internal/trace"
)

// ManagerOptions tunes epoch rotation.
type ManagerOptions struct {
	// EpochEvents asks for an epoch cut once the current epoch holds at
	// least this many trace events (default 4096). The cut lands on the
	// first balanced point — no requests in flight — at or after the
	// threshold, so every sealed epoch is independently auditable.
	EpochEvents int
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.EpochEvents <= 0 {
		o.EpochEvents = 4096
	}
	return o
}

// sealBacklog is how many cut epochs may wait for the sealer. A cut
// beyond it blocks the collector, and with it serving, until the sealer
// catches up. Every waiting epoch holds its events and reports in
// memory, so the backlog is a few epochs: enough to ride out a seal
// that takes longer than serving the next epoch, not enough to hide a
// sealer that cannot keep up.
const sealBacklog = 4

// SealedSummary is one entry of the manager's seal history.
type SealedSummary struct {
	Epoch    int64
	Events   int
	Requests int
	// Bytes is the epoch's logical footprint: the trace and the reports
	// bundle (and the init snapshot for epoch 1), as the uncompressed
	// blob sizes the manifest pins (the trace in its body-table form, so
	// repeated responses are already counted once per epoch) — the
	// numerator of the storage dedup ratio. Metrics sum it into the
	// bytes-logged counter.
	Bytes       int64
	ManifestSHA string
	SealedAt    time.Time
}

// ManagerStatus is a point-in-time view of the pipeline for status
// endpoints.
type ManagerStatus struct {
	Dir           string
	CurrentEpoch  int64
	CurrentEvents int
	Sealed        []SealedSummary
	Err           string
}

// Manager runs the online half of the epoch pipeline. Installed as the
// collector's Tap, it asks for a cut once the current epoch holds
// EpochEvents events; at the next balanced point the collector hands it
// the epoch's events, and the server's recorder is swapped in the same
// critical section, so no event or report entry straddles the boundary.
// The finished epoch is queued for the sealer goroutine, which encodes
// its trace once, straight into the chain's chunk store.
//
// The tap does no I/O and takes no lock of its own: Event only compares
// a count, and Cut only queues the epoch. Serving pauses for sealing
// only when sealBacklog epochs are already waiting.
type Manager struct {
	dir  string
	srv  *server.Server
	opts ManagerOptions
	// store is the chain's chunk store. Only the sealer goroutine writes
	// to it.
	store *cas.FS
	// lock is the chain directory's exclusive lock, held for the whole
	// serving run so offline maintenance (orochi-audit -gc/-scrub)
	// cannot sweep an in-flight seal's chunks or write the decision log
	// concurrently. Released by Close (or process exit).
	lock *ChainLock
	// init pins the trusted initial snapshot, which only epoch 1 ships.
	init *FileInfo

	// number is the epoch being collected and events the count of its
	// events so far. The tap writes both under the collector's lock;
	// Status reads them.
	number atomic.Int64
	events atomic.Int64
	closed atomic.Bool

	sealQ    chan *sealJob
	sealDone chan struct{}
	notify   chan struct{} // capacity 1; signaled after every seal

	// failed flips on the first pipeline error: cuts keep coming at the
	// usual cadence but their epochs are discarded, and queued seals
	// abort (epochs sealed after a hole could never be audited).
	failed atomic.Bool

	// histMu guards the sealer-side state and the error slot.
	histMu  sync.Mutex
	sealed  []SealedSummary
	pipeErr error
}

type sealJob struct {
	number int64
	events []trace.Event
	rec    *reports.Recorder
}

// StartManager begins epoch-segmented serving for srv, whose recording
// must be enabled and whose current object state must be init (the
// trusted initial snapshot of the first epoch — capture it after Setup,
// before the first request). dir must not already contain epochs or
// checkpoints: an epoch chain records one unbroken serving run, and a
// restarted server no longer holds the previous run's live state, so
// resuming a chain (or resuming audits from a previous chain's
// checkpoints) would only produce spurious rejections. The manager
// installs itself as the collector's tap; serving may begin as soon as
// StartManager returns.
func StartManager(dir string, srv *server.Server, init *object.Snapshot, opts ManagerOptions) (*Manager, error) {
	if srv.Recorder() == nil {
		return nil, fmt.Errorf("epoch: manager requires a recording server (Options.Record)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("epoch: start manager: %w", err)
	}
	lock, err := LockChain(dir)
	if err != nil {
		return nil, err
	}
	started := false
	defer func() {
		if !started {
			lock.Unlock()
		}
	}()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("epoch: start manager: %w", err)
	}
	for _, e := range entries {
		// Leftover checkpoints are as poisonous as leftover epochs: a
		// later `-from N` audit would resume the NEW chain from the OLD
		// chain's verified state and spuriously reject an honest run.
		// A leftover chunk store likewise belongs to a previous chain.
		if epochDirNumber(e.Name()) != 0 || e.Name() == "checkpoints" || e.Name() == CASDirName {
			return nil, fmt.Errorf("epoch: %s already holds epochs, checkpoints, or a chunk store; each serving run needs a fresh chain directory", dir)
		}
	}
	m := &Manager{
		dir:      dir,
		srv:      srv,
		lock:     lock,
		opts:     opts.withDefaults(),
		sealQ:    make(chan *sealJob, sealBacklog),
		sealDone: make(chan struct{}),
		notify:   make(chan struct{}, 1),
	}
	m.number.Store(1)
	if m.store, err = OpenChainStore(dir); err != nil {
		return nil, err
	}
	// The first epoch ships the trusted initial snapshot; later epochs
	// don't — the verifier derives their initial state itself (§4.5).
	info, err := chunkSnapshot(m.store, init)
	if err != nil {
		return nil, fmt.Errorf("epoch: write init snapshot: %w", err)
	}
	m.init = &info
	go m.sealLoop()
	srv.Collector.SetTap(m)
	started = true
	return m, nil
}

// fail records the first pipeline error and stops the pipeline; serving
// continues, the error surfaces via Status and Close.
func (m *Manager) fail(err error) {
	m.histMu.Lock()
	if m.pipeErr == nil {
		m.pipeErr = err
	}
	m.histMu.Unlock()
	m.failed.Store(true)
}

// Event implements trace.Tap: it requests a cut once the epoch holds
// EpochEvents events. After a pipeline failure the cuts keep coming, so
// Cut can discard each period instead of the collector and the recorder
// growing without bound.
func (m *Manager) Event(_ trace.Event, _, total int) bool {
	m.events.Store(int64(total))
	return total >= m.opts.EpochEvents
}

// Cut implements trace.Tap: the collector calls it at a balanced point
// after Event returned true, handing over the epoch's events. It runs
// under the collector's lock, so the recorder swap here is atomic with
// the trace cut — no request's events or report records can straddle
// the epoch boundary.
func (m *Manager) Cut(events []trace.Event) {
	rec := m.srv.SwapRecorder()
	n := m.number.Add(1) - 1
	m.events.Store(0)
	if m.failed.Load() {
		// The chain ended at the failure: swapping the recorder away
		// released the period's report state, and its events go with
		// this call.
		return
	}
	m.sealQ <- &sealJob{number: n, events: events, rec: rec}
}

// sealLoop is the single background sealer; running seals on one
// goroutine keeps the manifest hash chain ordered.
func (m *Manager) sealLoop() {
	defer close(m.sealDone)
	prevSHA := ""
	for job := range m.sealQ {
		if m.failed.Load() {
			// A hole already exists in the chain; sealing anything
			// after it would only produce unauditable epochs.
			continue
		}
		sha, err := m.seal(job, prevSHA)
		if err != nil {
			m.fail(fmt.Errorf("epoch: seal %d: %w", job.number, err))
			continue
		}
		prevSHA = sha
		select {
		case m.notify <- struct{}{}:
		default:
		}
	}
}

// seal writes the epoch's trace and reports into the chunk store, then
// creates its directory and writes the manifest pinning them.
func (m *Manager) seal(job *sealJob, prevSHA string) (string, error) {
	traceInfo, err := chunkTrace(m.store, job.events)
	if err != nil {
		return "", err
	}
	repInfo, err := chunkReports(m.store, job.rec.Finalize())
	if err != nil {
		return "", err
	}
	manifest := &Manifest{
		Version:            ManifestVersion,
		Epoch:              job.number,
		SealedUnix:         time.Now().Unix(),
		Events:             len(job.events),
		Requests:           (&trace.Trace{Events: job.events}).RequestCount(),
		Segments:           []SegmentInfo{traceInfo},
		Reports:            repInfo,
		PrevManifestSHA256: prevSHA,
	}
	bytes := traceInfo.Bytes + repInfo.Bytes
	if job.number == 1 {
		manifest.Init = m.init
		bytes += m.init.Bytes
	}
	epochDir := filepath.Join(m.dir, epochDirName(job.number))
	if err := os.Mkdir(epochDir, 0o755); err != nil {
		return "", err
	}
	// The new directory's name lives in the chain directory: without
	// this fsync a power loss can drop an epoch reported sealed.
	if err := syncDir(m.dir); err != nil {
		return "", err
	}
	sha, err := WriteManifest(epochDir, manifest)
	if err != nil {
		return "", err
	}
	m.histMu.Lock()
	m.sealed = append(m.sealed, SealedSummary{
		Epoch:       job.number,
		Events:      manifest.Events,
		Requests:    manifest.Requests,
		Bytes:       bytes,
		ManifestSHA: sha,
		SealedAt:    time.Now(),
	})
	m.histMu.Unlock()
	return sha, nil
}

// Close seals the final epoch and shuts the pipeline down. The server
// must be drained first (no requests in flight): the final epoch is cut
// wherever the trace stands, and an unbalanced tail would be rejected
// by its audit. Close returns the first pipeline error, if any.
func (m *Manager) Close() error {
	// Once SetTap returns no tap call is in flight (the collector makes
	// them under its lock) and none will come, so nothing can race the
	// queue shutdown below.
	m.srv.Collector.SetTap(nil)
	if !m.closed.CompareAndSwap(false, true) {
		return m.firstErr()
	}
	// The final (possibly short) epoch is what the collector still
	// buffers. An empty one is sealed only as epoch 1, which every chain
	// needs for its trusted initial snapshot.
	events := m.srv.Collector.Trace().Events
	m.srv.Collector.Reset()
	if n := m.number.Load(); (len(events) > 0 || n == 1) && !m.failed.Load() {
		m.sealQ <- &sealJob{number: n, events: events, rec: m.srv.SwapRecorder()}
	}
	close(m.sealQ)
	<-m.sealDone
	m.lock.Unlock() // the chain is quiescent; maintenance may run now
	return m.firstErr()
}

// firstErr reports the first pipeline failure.
func (m *Manager) firstErr() error {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	return m.pipeErr
}

// Notify returns a channel that receives (with capacity one) after each
// seal; background auditors use it to wake without polling delay.
func (m *Manager) Notify() <-chan struct{} { return m.notify }

// Dir returns the chain directory the manager seals into; the console
// reaches the chunk store through it for storage metrics.
func (m *Manager) Dir() string { return m.dir }

// Status reports the pipeline's current state.
func (m *Manager) Status() ManagerStatus {
	st := ManagerStatus{Dir: m.dir}
	if !m.closed.Load() {
		st.CurrentEpoch = m.number.Load()
		st.CurrentEvents = int(m.events.Load())
	}
	if err := m.firstErr(); err != nil {
		st.Err = err.Error()
	}
	m.histMu.Lock()
	st.Sealed = append([]SealedSummary(nil), m.sealed...)
	m.histMu.Unlock()
	return st
}
