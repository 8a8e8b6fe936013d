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
	// TeeBuffer is the capacity of the event queue between the
	// collector tap and the disk-writer goroutine (default 4096).
	// Serving only blocks on the log when the writer falls this far
	// behind.
	TeeBuffer int
	// Log tunes the per-epoch segmented log.
	Log LogWriterOptions
	// Storage selects the sealed-artifact layout: StorageChunked (the
	// default) seals into the chain's content-addressed store,
	// StorageWholeFile keeps the original whole-file epoch dirs.
	Storage StorageMode
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.EpochEvents <= 0 {
		o.EpochEvents = 4096
	}
	if o.TeeBuffer <= 0 {
		o.TeeBuffer = 4096
	}
	return o
}

// SealedSummary is one entry of the manager's seal history.
type SealedSummary struct {
	Epoch    int64
	Events   int
	Requests int
	Segments int
	// Bytes is the epoch's logical footprint: segment artifacts plus
	// the reports bundle (and the init snapshot for epoch 1). In
	// whole-file mode that is the on-disk byte count; in chunked mode
	// it is the uncompressed blob size the manifests pin (segments in
	// their body-table form, so repeated responses are already counted
	// once per segment) — the numerator of the storage dedup ratio.
	// Metrics sum it into the bytes-logged counter.
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
// collector's Tap, it tees every trace event toward the current epoch's
// segmented log and, once the event threshold is crossed and the trace
// is balanced, cuts the epoch: the collector's buffer and the server's
// recorder are swapped atomically at the boundary (inside the
// collector's critical section, so no event or report entry straddles
// it) and the finished epoch is sealed in the background.
//
// No disk I/O happens under the collector's lock: the tap only enqueues
// onto a buffered channel drained by a dedicated writer goroutine
// (which batches, compresses, and rotates segments), and sealing runs
// on a further goroutine behind it. Serving therefore never pauses for
// compression, fsync, or sealing — only sustained writer backlog
// (TeeBuffer) applies backpressure.
type Manager struct {
	dir  string
	srv  *server.Server
	opts ManagerOptions
	// store is the chain's chunk store (nil in whole-file mode). Only
	// the sealer goroutine writes to it.
	store *cas.FS
	// lock is the chain directory's exclusive lock, held for the whole
	// serving run so offline maintenance (orochi-audit -gc/-scrub)
	// cannot sweep an in-flight seal's chunks or write the decision log
	// concurrently. Released by Close (or process exit).
	lock *ChainLock

	// mu guards the tap-side state. Only the tap (under the collector's
	// lock), Close, and Status take it; the writer and sealer
	// goroutines never do.
	mu     sync.Mutex
	cur    *liveEpoch
	closed bool
	// failedEvents counts events since the last discard cut once the
	// pipeline has failed, so dead-pipeline periods keep being cut (and
	// dropped) instead of accumulating in the collector forever.
	failedEvents int

	// teeQ carries events and seal markers, in trace order, to the
	// writer goroutine. Cut enqueues the marker after the epoch's last
	// event and before the next epoch's first, so FIFO order guarantees
	// an epoch's writer has received everything before it is sealed.
	teeQ    chan teeMsg
	teeDone chan struct{}

	sealQ    chan *sealJob
	sealDone chan struct{}
	notify   chan struct{} // capacity 1; signaled after every seal

	// failed flips on the first pipeline error: the tap stops teeing
	// and cutting (epochs sealed after a hole could never be audited),
	// the writer drops events, and queued seals abort.
	failed atomic.Bool

	// histMu guards the sealer-side state and the error slot.
	histMu  sync.Mutex
	sealed  []SealedSummary
	pipeErr error
}

type liveEpoch struct {
	number   int64
	writer   *LogWriter
	events   int
	requests int
	initInfo *FileInfo // epoch 1 only
}

type teeMsg struct {
	ev trace.Event
	w  *LogWriter
	// job, when non-nil, marks an epoch boundary: the writer goroutine
	// forwards it to the sealer (the event fields are unused).
	job *sealJob
}

type sealJob struct {
	number   int64
	writer   *LogWriter
	rec      *reports.Recorder
	events   int
	requests int
	initInfo *FileInfo
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
		teeDone:  make(chan struct{}),
		sealQ:    make(chan *sealJob, 16),
		sealDone: make(chan struct{}),
		notify:   make(chan struct{}, 1),
	}
	m.teeQ = make(chan teeMsg, m.opts.TeeBuffer)
	if m.opts.Storage == StorageChunked {
		store, err := OpenChainStore(dir)
		if err != nil {
			return nil, err
		}
		m.store = store
	}
	cur, err := m.openEpoch(1)
	if err != nil {
		return nil, err
	}
	// The first epoch ships the trusted initial snapshot; later epochs
	// don't — the verifier derives their initial state itself (§4.5).
	if m.store != nil {
		info, err := chunkSnapshot(m.store, init)
		if err != nil {
			return nil, fmt.Errorf("epoch: write init snapshot: %w", err)
		}
		cur.initInfo = &info
	} else {
		initData, err := init.Encode()
		if err != nil {
			return nil, err
		}
		initPath := filepath.Join(m.dir, epochDirName(1), InitName)
		if err := writeFileSync(initPath, initData); err != nil {
			return nil, fmt.Errorf("epoch: write init snapshot: %w", err)
		}
		cur.initInfo = &FileInfo{Name: InitName, Bytes: int64(len(initData)), SHA256: cas.SumHex(initData)}
	}
	m.cur = cur
	go m.teeLoop()
	go m.sealLoop()
	srv.Collector.SetTap(m)
	started = true
	return m, nil
}

func (m *Manager) openEpoch(n int64) (*liveEpoch, error) {
	w, err := OpenLogWriter(filepath.Join(m.dir, epochDirName(n)), m.opts.Log)
	if err != nil {
		return nil, err
	}
	return &liveEpoch{number: n, writer: w}, nil
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

// Event implements trace.Tap: it tees ev toward the current epoch's log
// and requests a cut once the epoch threshold is reached. It runs under
// the collector's lock, so it must stay cheap: the disk work happens on
// the writer goroutine behind teeQ.
func (m *Manager) Event(ev trace.Event, open, total int) bool {
	if m.failed.Load() {
		// The pipeline is dead but serving continues: keep requesting
		// cuts at the usual cadence so Cut can discard the period —
		// otherwise the collector's buffer and the recorder would grow
		// without bound until OOM.
		m.mu.Lock()
		m.failedEvents++
		cut := m.failedEvents >= m.opts.EpochEvents
		if cut {
			m.failedEvents = 0
		}
		m.mu.Unlock()
		return cut
	}
	m.mu.Lock()
	if m.closed || m.cur == nil {
		m.mu.Unlock()
		return false
	}
	w := m.cur.writer
	m.cur.events++
	if ev.Kind == trace.Request {
		m.cur.requests++
	}
	cut := m.cur.events >= m.opts.EpochEvents
	m.mu.Unlock()
	m.teeQ <- teeMsg{ev: ev, w: w}
	return cut
}

// Cut implements trace.Tap: the collector calls it at a balanced point
// after Event returned true. It runs under the collector's lock, so the
// recorder swap here is atomic with the trace cut — no request's events
// or report records can straddle the epoch boundary. The events
// themselves were already teed by Event; the seal marker enqueued here
// follows them in FIFO order.
func (m *Manager) Cut(events []trace.Event) {
	if m.failed.Load() {
		// Discard the period: the collector has already dropped its
		// buffer, and swapping the recorder away releases the report
		// state. Nothing is written — the chain ended at the failure.
		m.srv.SwapRecorder()
		return
	}
	m.mu.Lock()
	if m.closed || m.cur == nil {
		m.mu.Unlock()
		return
	}
	cur := m.cur
	next, err := m.openEpoch(cur.number + 1)
	if err != nil {
		m.mu.Unlock()
		m.fail(err)
		return
	}
	job := &sealJob{
		number:   cur.number,
		writer:   cur.writer,
		rec:      m.srv.SwapRecorder(),
		events:   cur.events,
		requests: cur.requests,
		initInfo: cur.initInfo,
	}
	m.cur = next
	m.mu.Unlock()
	m.teeQ <- teeMsg{job: job}
}

// teeLoop is the single disk-writer goroutine: it appends events to
// their epoch's log and forwards seal markers to the sealer, in the
// order the tap produced them.
func (m *Manager) teeLoop() {
	defer close(m.teeDone)
	for msg := range m.teeQ {
		if msg.job != nil {
			if m.failed.Load() {
				msg.job.writer.Abort()
				continue
			}
			m.sealQ <- msg.job
			continue
		}
		if m.failed.Load() {
			continue
		}
		if err := msg.w.AppendEvent(msg.ev); err != nil {
			m.fail(err)
		}
	}
	close(m.sealQ)
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
			job.writer.Abort()
			continue
		}
		sha, err := m.seal(job, prevSHA)
		if err != nil {
			m.fail(err)
			continue
		}
		prevSHA = sha
		select {
		case m.notify <- struct{}{}:
		default:
		}
	}
}

func (m *Manager) seal(job *sealJob, prevSHA string) (string, error) {
	segs, err := job.writer.Finalize()
	if err != nil {
		return "", fmt.Errorf("epoch: seal %d: %w", job.number, err)
	}
	epochDir := filepath.Join(m.dir, epochDirName(job.number))
	version := 0
	var repInfo FileInfo
	if m.store != nil {
		// Chunked sealing: segment files become content-defined chunks
		// in the chain store (a chunk it already holds is not written
		// again), and the reports bundle is chunked directly — after
		// this the epoch dir holds only the manifest.
		version = ManifestVersionChunked
		segs, err = chunkSegments(m.store, epochDir, segs)
		if err != nil {
			return "", fmt.Errorf("epoch: seal %d: %w", job.number, err)
		}
		repInfo, err = chunkReports(m.store, job.rec.Finalize())
		if err != nil {
			return "", fmt.Errorf("epoch: seal %d: %w", job.number, err)
		}
	} else {
		repInfo, err = WriteReportsFile(filepath.Join(epochDir, ReportsName), job.rec.Finalize())
		if err != nil {
			return "", fmt.Errorf("epoch: seal %d: %w", job.number, err)
		}
	}
	manifest := &Manifest{
		Version:            version,
		Epoch:              job.number,
		SealedUnix:         time.Now().Unix(),
		Events:             job.events,
		Requests:           job.requests,
		Segments:           segs,
		Reports:            repInfo,
		Init:               job.initInfo,
		PrevManifestSHA256: prevSHA,
	}
	sha, err := WriteManifest(epochDir, manifest)
	if err != nil {
		return "", fmt.Errorf("epoch: seal %d: %w", job.number, err)
	}
	bytes := repInfo.Bytes
	for _, seg := range segs {
		bytes += seg.Bytes
	}
	if job.initInfo != nil {
		bytes += job.initInfo.Bytes
	}
	m.histMu.Lock()
	m.sealed = append(m.sealed, SealedSummary{
		Epoch:       job.number,
		Events:      job.events,
		Requests:    job.requests,
		Segments:    len(segs),
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
	// Detach the tap before taking m.mu: the collector invokes the tap
	// while holding its own lock and the tap then takes m.mu, so the
	// reverse order here could deadlock. Once SetTap returns, no tap
	// call is in flight (the collector serializes them), so nothing
	// can race the queue shutdown below.
	m.srv.Collector.SetTap(nil)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return m.firstErr()
	}
	m.closed = true
	cur := m.cur
	m.cur = nil
	m.mu.Unlock()
	if cur != nil {
		if (cur.events > 0 || cur.number == 1) && !m.failed.Load() {
			// Seal the final (possibly short) epoch. The collector's
			// buffer for it is discarded by Reset below; the log
			// already holds every event.
			m.teeQ <- teeMsg{job: &sealJob{
				number:   cur.number,
				writer:   cur.writer,
				rec:      m.srv.SwapRecorder(),
				events:   cur.events,
				requests: cur.requests,
				initInfo: cur.initInfo,
			}}
		} else {
			// Nothing was served since the last cut (or the pipeline
			// already failed): drop the dangling epoch directory
			// rather than sealing a vacuous or unauditable epoch.
			cur.writer.Abort()
			if cur.events == 0 && cur.number > 1 {
				os.Remove(filepath.Join(m.dir, epochDirName(cur.number)))
			}
		}
	}
	close(m.teeQ)
	<-m.teeDone
	<-m.sealDone
	m.srv.Collector.Reset()
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
	m.mu.Lock()
	if m.cur != nil {
		st.CurrentEpoch = m.cur.number
		st.CurrentEvents = m.cur.events
	}
	m.mu.Unlock()
	if err := m.firstErr(); err != nil {
		st.Err = err.Error()
	}
	m.histMu.Lock()
	st.Sealed = append([]SealedSummary(nil), m.sealed...)
	m.histMu.Unlock()
	return st
}
