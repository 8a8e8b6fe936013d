package epoch

import (
	"errors"
	"fmt"
	"path/filepath"

	"orochi/internal/cas"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/trace"
)

// IntegrityError reports that a sealed epoch's artifacts fail
// verification against the manifest (missing or altered chunk, digest
// mismatch, undecodable blob, count mismatch). It is evidence of
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

// Load reads a sealed epoch's trace, reports, and (if present)
// initial snapshot from the chain's chunk store, verifying every chunk
// by digest on the way, every artifact against the manifest's SHA-256
// digests, and the decoded event counts against the manifest. Failures
// are *IntegrityError.
func Load(s *Sealed) (*Loaded, error) {
	return LoadFrom(s, nil)
}

// LoadFrom is Load with an explicit chunk store (nil opens the chain's
// own <dir>/cas — the seam for loading against a remote or tiered
// store).
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
	if store == nil {
		fsStore, err := OpenChainStore(filepath.Dir(s.Dir))
		if err != nil {
			return fail("%v", err)
		}
		store = fsStore
	}
	// readArtifact fetches one artifact's logical bytes and verifies
	// them against the manifest pin. The returned error is always an
	// *IntegrityError detail string-ready via fail().
	readArtifact := func(label string, fi FileInfo) ([]byte, error) {
		data, err := cas.ReadBlob(store, fi.Chunks)
		if err != nil {
			var ce *cas.ChunkError
			if errors.As(err, &ce) {
				return nil, fmt.Errorf("%s: chunk %d of %d (sha256 %s): %v",
					label, ce.Index+1, len(fi.Chunks), ce.Digest, ce.Err)
			}
			return nil, fmt.Errorf("%s: %v", label, err)
		}
		// A one-chunk artifact whose chunk digest is the manifest's was
		// verified against that digest by Store.Get already.
		if len(fi.Chunks) != 1 || fi.Chunks[0].SHA256 != fi.SHA256 {
			if got := cas.SumHex(data); got != fi.SHA256 {
				return nil, fmt.Errorf("%s: digest mismatch (manifest %s, disk %s)", label, short(fi.SHA256), short(got))
			}
		}
		if int64(len(data)) != fi.Bytes {
			return nil, fmt.Errorf("%s: size mismatch (manifest %d, disk %d)", label, fi.Bytes, len(data))
		}
		return data, nil
	}

	var events []trace.Event
	for _, seg := range s.Manifest.Segments {
		label := fmt.Sprintf("segment %s", seg.Name)
		data, err := readArtifact(label, seg.FileInfo)
		if err != nil {
			return fail("%v", err)
		}
		tr, err := trace.DecodeRaw(data)
		if err != nil {
			return fail("%s: undecodable blob: %v", label, err)
		}
		if len(tr.Events) != seg.Events {
			return fail("%s: event count mismatch (manifest %d, decoded %d)", label, seg.Events, len(tr.Events))
		}
		events = append(events, tr.Events...)
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
	rep, err := reports.DecodeRaw(repData)
	if err != nil {
		return fail("reports: %v", err)
	}

	out := &Loaded{Sealed: s, Trace: tr, Reports: rep}
	if s.Manifest.Init != nil {
		initData, err := readArtifact("init snapshot", *s.Manifest.Init)
		if err != nil {
			return fail("%v", err)
		}
		if out.Init, err = object.DecodeSnapshotRaw(initData); err != nil {
			return fail("init snapshot: %v", err)
		}
	}
	return out, nil
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
