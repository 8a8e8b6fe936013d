package epoch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"orochi/internal/cas"
	"orochi/internal/trace"
)

// LogWriterOptions tunes the segmented log.
type LogWriterOptions struct {
	// SegmentEvents rotates the active segment after it holds this many
	// events (default 1024).
	SegmentEvents int
	// SegmentBytes rotates the active segment after it reaches this
	// size (default 4 MiB).
	SegmentBytes int64
	// BatchEvents is how many events are buffered in memory before they
	// are framed into one on-disk record (default 64). Smaller batches
	// mean finer-grained durability; larger batches compress better.
	BatchEvents int
}

func (o LogWriterOptions) withDefaults() LogWriterOptions {
	if o.SegmentEvents <= 0 {
		o.SegmentEvents = 1024
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.BatchEvents <= 0 {
		o.BatchEvents = 64
	}
	return o
}

// SegmentInfo describes one finalized segment. While the epoch is
// live, Bytes/SHA256 are over the on-disk segment file; in a manifest
// they describe the segment's logical blob (its events as
// trace.EncodeRaw writes them, each distinct response body once) and
// Chunks lists the content-defined chunks that reassemble it.
type SegmentInfo struct {
	Name    string    `json:"name"`
	Bytes   int64     `json:"bytes"`
	Records int       `json:"records"`
	Events  int       `json:"events"`
	SHA256  string    `json:"sha256"`
	Chunks  []cas.Ref `json:"chunks,omitempty"`
}

// LogWriter appends trace events to length-prefixed, CRC-checksummed,
// gzip-framed records in rotating append-only segment files. The
// records of one segment share a response-body table (trace.Encoder):
// a record carries only the bodies no earlier record of its segment
// introduced, and the table starts empty in every segment, so each
// segment file decodes on its own. The active
// segment carries a ".open" suffix; rotation finalizes it (fsync +
// atomic rename to ".seg") and lazily opens the next one on the first
// subsequent append. Reopening a directory with OpenLogWriter recovers
// from a crash: the valid prefix of a torn ".open" segment is kept, the
// damaged tail truncated, and appending resumes in place.
//
// LogWriter is safe for concurrent use, though the epoch pipeline calls
// it from a single collector-serialized goroutine at a time.
type LogWriter struct {
	dir  string
	opts LogWriterOptions

	mu         sync.Mutex
	seq        int            // number of the active (or next) segment
	f          *os.File       // nil until the first append of a segment
	enc        *trace.Encoder // body table of the active segment
	hash       hash.Hash
	segBytes   int64
	segRecords int
	segEvents  int
	pending    []trace.Event
	done       []SegmentInfo
	events     int // total events appended (including pending)
	closed     bool
}

// OpenLogWriter opens dir for appending, creating it if needed. If dir
// already holds segments from an interrupted run, the writer adopts
// them: finalized segments are re-scanned into its history and a torn
// active segment is truncated to its last valid record and continued.
func OpenLogWriter(dir string, opts LogWriterOptions) (*LogWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("epoch: open log: %w", err)
	}
	w := &LogWriter{dir: dir, opts: opts.withDefaults(), seq: 1}
	finalized, open, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range finalized {
		info, _, err := readSegmentFile(filepath.Join(dir, name), true)
		if err != nil {
			return nil, fmt.Errorf("epoch: finalized segment %s is damaged: %w", name, err)
		}
		w.done = append(w.done, info)
		w.events += info.Events
		w.seq = segmentSeq(name) + 1
	}
	if open != "" {
		if s := segmentSeq(open); s >= w.seq {
			w.seq = s
		} else {
			// An .open segment older than a finalized one is leftover
			// junk from a rotation interrupted between rename and next
			// open; it can hold no events the finalized history lacks.
			if err := os.Remove(filepath.Join(dir, open)); err != nil {
				return nil, fmt.Errorf("epoch: open log: %w", err)
			}
			open = ""
		}
	}
	if open != "" {
		if err := w.recoverOpenSegment(filepath.Join(dir, open)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// recoverOpenSegment truncates the torn tail of the active segment at
// path and resumes appending to it, with the body table its surviving
// records built. A torn tail only drops the newest records, which no
// surviving record references.
func (w *LogWriter) recoverOpenSegment(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("epoch: recover %s: %w", path, err)
	}
	var valid int64
	dec := new(trace.Decoder)
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		// Crashed before the header made it out: restart the file.
		valid = 0
	} else {
		recs, v, err := parseSegment(data, false)
		if err != nil {
			return fmt.Errorf("epoch: recover %s: %w", path, err)
		}
		valid = v
		events, err := decodeEventRecords(dec, recs)
		if err != nil {
			return fmt.Errorf("epoch: recover %s: %w", path, err)
		}
		w.segEvents = len(events)
		w.segRecords = len(recs)
		w.events += w.segEvents
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("epoch: recover %s: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return fmt.Errorf("epoch: recover %s: %w", path, err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return fmt.Errorf("epoch: recover %s: %w", path, err)
	}
	w.f = f
	w.enc = dec.Encoder()
	w.hash = sha256.New()
	w.hash.Write(data[:valid])
	w.segBytes = valid
	if valid == 0 {
		// The header was lost with the torn tail; rewrite it.
		if err := w.writeRaw([]byte(segMagic)); err != nil {
			return err
		}
	}
	return nil
}

// AppendEvent buffers ev and writes a record once a batch accumulates.
func (w *LogWriter) AppendEvent(ev trace.Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("epoch: append to closed log")
	}
	w.pending = append(w.pending, ev)
	w.events++
	if len(w.pending) >= w.opts.BatchEvents {
		return w.flushLocked()
	}
	return nil
}

// Flush writes any buffered events to the active segment.
func (w *LogWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *LogWriter) flushLocked() error {
	if len(w.pending) == 0 {
		return nil
	}
	if w.f == nil {
		if err := w.openSegmentLocked(); err != nil {
			return err
		}
	}
	payload, err := w.enc.Encode(w.pending)
	if err != nil {
		return err
	}
	n := len(w.pending)
	w.pending = nil
	if err := w.writeRaw(encodeRecord(recEvents, payload)); err != nil {
		return err
	}
	w.segRecords++
	w.segEvents += n
	if w.segEvents >= w.opts.SegmentEvents || w.segBytes >= w.opts.SegmentBytes {
		return w.rotateLocked()
	}
	return nil
}

func (w *LogWriter) openSegmentLocked() error {
	path := filepath.Join(w.dir, segmentName(w.seq, false))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("epoch: open segment: %w", err)
	}
	w.f = f
	w.enc = new(trace.Encoder)
	w.hash = sha256.New()
	w.segBytes = 0
	w.segRecords = 0
	w.segEvents = 0
	return w.writeRaw([]byte(segMagic))
}

func (w *LogWriter) writeRaw(p []byte) error {
	if _, err := w.f.Write(p); err != nil {
		return fmt.Errorf("epoch: write segment: %w", err)
	}
	w.hash.Write(p)
	w.segBytes += int64(len(p))
	return nil
}

// rotateLocked finalizes the active segment: fsync, atomic rename to
// ".seg", directory fsync. The next append opens the next segment.
func (w *LogWriter) rotateLocked() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("epoch: finalize segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("epoch: finalize segment: %w", err)
	}
	openPath := filepath.Join(w.dir, segmentName(w.seq, false))
	segPath := filepath.Join(w.dir, segmentName(w.seq, true))
	if err := os.Rename(openPath, segPath); err != nil {
		return fmt.Errorf("epoch: finalize segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	w.done = append(w.done, SegmentInfo{
		Name:    segmentName(w.seq, true),
		Bytes:   w.segBytes,
		Records: w.segRecords,
		Events:  w.segEvents,
		SHA256:  hex.EncodeToString(w.hash.Sum(nil)),
	})
	w.f = nil
	w.hash = nil
	w.seq++
	w.segBytes = 0
	w.segRecords = 0
	w.segEvents = 0
	return nil
}

// Finalize flushes buffered events, finalizes the active segment, and
// closes the writer, returning the full segment history in order.
func (w *LogWriter) Finalize() ([]SegmentInfo, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.done, nil
	}
	if err := w.flushLocked(); err != nil {
		return nil, err
	}
	if err := w.rotateLocked(); err != nil {
		return nil, err
	}
	w.closed = true
	return w.done, nil
}

// Abort closes the writer without finalizing; the active segment keeps
// its ".open" name (a later OpenLogWriter can recover it).
func (w *LogWriter) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// Events returns the total number of events appended so far.
func (w *LogWriter) Events() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.events
}

// ReadLogEvents reads every event in dir's segments, in order: all
// finalized segments strictly, then the valid prefix of the active
// segment if one exists. It is the reader for unsealed (live or
// crashed) logs; sealed epochs are read through their manifest instead.
func ReadLogEvents(dir string) ([]trace.Event, error) {
	finalized, open, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var out []trace.Event
	for _, name := range finalized {
		_, evs, err := readSegmentFile(filepath.Join(dir, name), true)
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	if open != "" {
		_, evs, err := readSegmentFile(filepath.Join(dir, open), false)
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	return out, nil
}

// readSegmentFile parses one segment file and returns its metadata and
// events. In strict mode the whole file must validate (finalized and
// sealed segments); otherwise the valid prefix is returned.
func readSegmentFile(path string, strict bool) (SegmentInfo, []trace.Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SegmentInfo{}, nil, err
	}
	recs, valid, err := parseSegment(data, strict)
	if err != nil {
		return SegmentInfo{}, nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	info := SegmentInfo{
		Name:    filepath.Base(path),
		Bytes:   valid,
		Records: len(recs),
		SHA256:  cas.SumHex(data[:valid]),
	}
	events, err := decodeEventRecords(new(trace.Decoder), recs)
	if err != nil {
		return SegmentInfo{}, nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	info.Events = len(events)
	return info, events, nil
}

// decodeEventRecords replays a segment's records, in order, through
// dec — a record may reference bodies an earlier record introduced, so
// dec must start empty at the segment's first record — and returns the
// events. Every record must be an events record: a CRC-valid record of
// another type was written by no build of this format.
func decodeEventRecords(dec *trace.Decoder, recs []record) ([]trace.Event, error) {
	var events []trace.Event
	for _, r := range recs {
		if r.typ != recEvents {
			return nil, fmt.Errorf("CRC-valid record of unknown type %d", r.typ)
		}
		evs, err := dec.Decode(r.payload)
		if err != nil {
			return nil, fmt.Errorf("CRC-valid record fails to decode: %w", err)
		}
		events = append(events, evs...)
	}
	return events, nil
}

// segmentName formats the file name of segment n.
func segmentName(n int, finalized bool) string {
	if finalized {
		return fmt.Sprintf("seg-%06d.seg", n)
	}
	return fmt.Sprintf("seg-%06d.open", n)
}

// segmentSeq parses the sequence number out of a segment file name,
// returning 0 unless the name matches the exact seg-%06d.{seg,open}
// shape — Sscanf alone would accept junk like "seg-1.bak.seg" and
// alias it into the sequence.
func segmentSeq(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, "seg-%d", &n); err != nil || n <= 0 {
		return 0
	}
	if name != segmentName(n, true) && name != segmentName(n, false) {
		return 0
	}
	return n
}

// listSegments returns dir's finalized segment names in sequence order
// plus the active (".open") segment name, if any. Files that merely
// resemble segment names (wrong padding, extra suffixes) are ignored —
// they are not ours.
func listSegments(dir string) (finalized []string, open string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", fmt.Errorf("epoch: list segments: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if segmentSeq(name) == 0 {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".seg"):
			finalized = append(finalized, name)
		case strings.HasSuffix(name, ".open"):
			if open != "" {
				return nil, "", fmt.Errorf("epoch: multiple open segments in %s", dir)
			}
			open = name
		}
	}
	sort.Slice(finalized, func(i, j int) bool { return segmentSeq(finalized[i]) < segmentSeq(finalized[j]) })
	for i, name := range finalized {
		if segmentSeq(name) != i+1 {
			return nil, "", fmt.Errorf("epoch: segment sequence gap in %s: %v", dir, finalized)
		}
	}
	return finalized, open, nil
}

// writeFileSync writes data to path and fsyncs the file and directory.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("epoch: sync %s: %w", dir, err)
	}
	return nil
}
