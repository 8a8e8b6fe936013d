package epoch

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"orochi/internal/cas"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/trace"
)

// IntegrityError reports that a sealed epoch's artifacts fail
// verification against the manifest (missing file or chunk, digest
// mismatch, damaged framing, count mismatch). It is evidence of
// tampering or loss, so auditors surface it as a REJECT verdict, not
// an internal fault.
type IntegrityError struct {
	Epoch  int64
	Detail string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("epoch %d integrity: %s", e.Epoch, e.Detail)
}

// Loaded is a sealed epoch whose artifacts have been read back and
// verified against the manifest digests.
type Loaded struct {
	*Sealed
	Trace   *trace.Trace
	Reports *reports.Reports
	// Init is the trusted initial snapshot (first epoch of a chain
	// only; nil otherwise).
	Init *object.Snapshot
}

// Load reads a sealed epoch's segments, reports, and (if present)
// initial snapshot, verifying every artifact against the manifest's
// SHA-256 digests and the decoded event counts against the manifest.
// Chunked (v2) epochs read from the chain's chunk store, every chunk
// verified by digest on the way; whole-file (v1) epochs read files
// from the epoch directory, falling back to the store for files a
// migration has moved there. Failures are *IntegrityError.
func Load(s *Sealed) (*Loaded, error) {
	return LoadFrom(s, nil)
}

// LoadFrom is Load with an explicit chunk store (nil opens the chain's
// own <dir>/cas on first use — the seam for loading against a remote
// or tiered store).
func LoadFrom(s *Sealed, store cas.Store) (*Loaded, error) {
	fail := func(format string, args ...any) (*Loaded, error) {
		return nil, &IntegrityError{Epoch: s.Number, Detail: fmt.Sprintf(format, args...)}
	}
	if s.Err != nil {
		return fail("damaged manifest: %v", s.Err)
	}
	if s.Manifest == nil {
		return fail("no manifest")
	}
	getStore := func() (cas.Store, error) {
		if store == nil {
			fsStore, err := OpenChainStore(filepath.Dir(s.Dir))
			if err != nil {
				return nil, err
			}
			store = fsStore
		}
		return store, nil
	}
	// readArtifact fetches one artifact's logical bytes and verifies
	// them against the manifest pin. The returned error is always an
	// *IntegrityError detail string-ready via fail().
	readArtifact := func(label string, fi FileInfo) ([]byte, error) {
		var data []byte
		if len(fi.Chunks) > 0 {
			st, err := getStore()
			if err != nil {
				return nil, fmt.Errorf("%s: %v", label, err)
			}
			data, err = cas.ReadBlob(st, fi.Chunks)
			if err != nil {
				var ce *cas.ChunkError
				if errors.As(err, &ce) {
					return nil, fmt.Errorf("%s: chunk %d of %d (sha256 %s): %v",
						label, ce.Index+1, len(fi.Chunks), ce.Digest, ce.Err)
				}
				return nil, fmt.Errorf("%s: %v", label, err)
			}
		} else {
			var err error
			data, err = os.ReadFile(filepath.Join(s.Dir, fi.Name))
			if os.IsNotExist(err) {
				// Migrated whole-file epochs keep their manifests but the
				// bytes live in the store as one blob under the file digest.
				st, serr := getStore()
				if serr != nil {
					return nil, fmt.Errorf("%s: %v", label, serr)
				}
				data, serr = st.Get(fi.SHA256)
				if serr != nil {
					return nil, fmt.Errorf("%s: missing from epoch dir and chunk store: %v", label, serr)
				}
			} else if err != nil {
				return nil, fmt.Errorf("%s: %v", label, err)
			}
		}
		if got := cas.SumHex(data); got != fi.SHA256 {
			return nil, fmt.Errorf("%s: digest mismatch (manifest %s, disk %s)", label, short(fi.SHA256), short(got))
		}
		if int64(len(data)) != fi.Bytes {
			return nil, fmt.Errorf("%s: size mismatch (manifest %d, disk %d)", label, fi.Bytes, len(data))
		}
		return data, nil
	}

	chunked := s.Manifest.Chunked()
	var events []trace.Event
	for _, seg := range s.Manifest.Segments {
		label := fmt.Sprintf("segment %s", seg.Name)
		data, err := readArtifact(label, FileInfo{Name: seg.Name, Bytes: seg.Bytes, SHA256: seg.SHA256, Chunks: seg.Chunks})
		if err != nil {
			return fail("%v", err)
		}
		var segEvents []trace.Event
		if chunked {
			tr, err := trace.DecodeRaw(data)
			if err != nil {
				return fail("%s: undecodable blob: %v", label, err)
			}
			segEvents = tr.Events
		} else {
			recs, _, err := parseSegment(data, true)
			if err != nil {
				return fail("%s: %v", label, err)
			}
			segEvents, err = decodeEventRecords(new(trace.Decoder), recs)
			if err != nil {
				return fail("%s: %v", label, err)
			}
		}
		if len(segEvents) != seg.Events {
			return fail("%s: event count mismatch (manifest %d, decoded %d)", label, seg.Events, len(segEvents))
		}
		events = append(events, segEvents...)
	}
	if len(events) != s.Manifest.Events {
		return fail("event count mismatch (manifest %d, decoded %d)", s.Manifest.Events, len(events))
	}
	tr := &trace.Trace{Events: events}
	if got := tr.RequestCount(); got != s.Manifest.Requests {
		return fail("request count mismatch (manifest %d, decoded %d)", s.Manifest.Requests, got)
	}

	repData, err := readArtifact("reports", s.Manifest.Reports)
	if err != nil {
		return fail("%v", err)
	}
	var rep *reports.Reports
	if chunked {
		rep, err = reports.DecodeRaw(repData)
	} else {
		rep, err = decodeReportsSegment(repData)
	}
	if err != nil {
		return fail("reports: %v", err)
	}

	out := &Loaded{Sealed: s, Trace: tr, Reports: rep}
	if s.Manifest.Init != nil {
		initData, err := readArtifact("init snapshot", *s.Manifest.Init)
		if err != nil {
			return fail("%v", err)
		}
		var snap *object.Snapshot
		if chunked {
			snap, err = object.DecodeSnapshotRaw(initData)
		} else {
			snap, err = object.DecodeSnapshot(initData)
		}
		if err != nil {
			return fail("init snapshot: %v", err)
		}
		out.Init = snap
	}
	return out, nil
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
