// Package epoch is the durable serving pipeline: it seals the
// collector's trace and the executor's reports for each serving period
// ("epoch") into a content-addressed chunk store behind a manifest, and
// audits sealed epochs in the background while serving continues (§4.1,
// §5 deployment model, made continuous).
//
// Layout of an epoch directory tree:
//
//	<dir>/
//	  epoch-000001/
//	    MANIFEST.json    seal record: chunk refs and digests of every
//	                     artifact (the trace, the reports, the trusted
//	                     init snapshot in epoch 1) + chain link
//	    COMPACTED.json   retention compaction marker (see GC)
//	  epoch-000002/
//	    ...
//	  cas/               chunk store: every sealed artifact and every
//	                     checkpoint, by chunk digest
//	  checkpoints/
//	    epoch-000001.json verified final snapshot, as a list of chunk
//	                     refs into cas/ (written by the auditor or the
//	                     fleet coordinator)
//	  decisions.jsonl    the verdict ledger
//
// An epoch is sealed exactly when its MANIFEST.json exists, and the
// sealer creates the epoch directory only to write it: an epoch still
// being served, or queued for sealing, has no directory. The manifest
// pins every artifact by SHA-256 and links to the previous epoch's
// manifest digest, forming a hash chain over the whole serving history.
// Its "version" is the chain's format generation (ManifestVersion).
package epoch

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"orochi/internal/cas"
)

// The manifest's file name in an epoch directory, and the names it
// gives the trace, the reports bundle and the init snapshot (which live
// in the chunk store, not as files).
const (
	ManifestName = "MANIFEST.json"
	TraceName    = "trace.seg"
	ReportsName  = "reports.seg"
	InitName     = "init.bin"
)

// ManifestVersion is the chain format generation this build writes and
// reads: the layout of the manifest and of every artifact it pins. A
// format change bumps it; a chain of any other generation is refused
// with ErrChainFormat, never decoded by a second reader. Generation 3
// encodes the trace, reports and snapshots with encio's canonical codec.
const ManifestVersion = 3

// ErrChainFormat reports a chain whose epoch 1 manifest carries a format
// generation other than ManifestVersion. A build cannot read it, which
// says nothing about the server that sealed it: it is never a verdict.
var ErrChainFormat = errors.New("chain written by another build")

// FileInfo pins one epoch artifact by name, size, and content digest:
// Bytes and SHA256 describe the logical (uncompressed) blob and Chunks
// lists the chunks that reassemble it, in order.
type FileInfo struct {
	Name   string    `json:"name"`
	Bytes  int64     `json:"bytes"`
	SHA256 string    `json:"sha256"`
	Chunks []cas.Ref `json:"chunks,omitempty"`
}

// SegmentInfo pins a trace artifact: its events as trace.EncodeRaw
// writes them (each distinct response body once), and how many there
// are.
type SegmentInfo struct {
	FileInfo
	Events int `json:"events"`
}

// Manifest is the seal record of one epoch. Writing it (atomically, as
// the last step of sealing) is what makes an epoch visible to auditors;
// its PrevManifestSHA256 links epochs into a hash chain, so tampering
// with any sealed artifact — or with a past manifest itself — breaks
// verification of everything downstream.
type Manifest struct {
	// Version is the chain format generation (ManifestVersion).
	Version    int   `json:"version"`
	Epoch      int64 `json:"epoch"`
	SealedUnix int64 `json:"sealed_unix"`
	Events     int   `json:"events"`
	Requests   int   `json:"requests"`
	// Segments pins the epoch's trace: the events of its entries, in
	// order. The sealer writes one entry, TraceName.
	Segments []SegmentInfo `json:"segments"`
	// Reports pins the report bundle.
	Reports FileInfo `json:"reports"`
	// Init pins the trusted initial snapshot; only the first epoch of a
	// chain carries one — later epochs derive their trusted initial
	// state from the previous epoch's verified audit (§4.1, §4.5).
	Init *FileInfo `json:"init_snapshot,omitempty"`
	// PrevManifestSHA256 is the digest of the previous epoch's manifest
	// file ("" for the first epoch).
	PrevManifestSHA256 string `json:"prev_manifest_sha256"`
}

// ChunkRefs returns every chunk reference the manifest pins, across
// segments, reports, and the init snapshot. GC marks live chunks
// through it; scrub samples from it.
func (m *Manifest) ChunkRefs() []cas.Ref {
	var refs []cas.Ref
	for _, seg := range m.Segments {
		refs = append(refs, seg.Chunks...)
	}
	refs = append(refs, m.Reports.Chunks...)
	if m.Init != nil {
		refs = append(refs, m.Init.Chunks...)
	}
	return refs
}

// WriteManifest seals dir with m: the manifest is written to a temp
// file, fsynced, and atomically renamed into place. It returns the
// manifest digest the next epoch must chain to. On any failure the
// temp file is removed — a stale MANIFEST.json.tmp must never linger
// for a later seal (or an operator) to trip over.
func WriteManifest(dir string, m *Manifest) (string, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("epoch: write manifest: %w", err)
	}
	data = append(data, '\n')
	// Only the rename has to be durable, so the temp name's directory
	// entry is not fsynced on its own; the one fsync below covers both.
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("epoch: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("epoch: write manifest: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return cas.SumHex(data), nil
}

// writeFileDurable writes data to path and fsyncs the file and its
// directory, so the file and its name both survive a crash.
func writeFileDurable(path string, data []byte) error {
	if err := writeFileSync(path, data); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeFileSync writes data to path and fsyncs the file, not its name.
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
	return f.Close()
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

// ReadManifest loads an epoch's manifest and returns it with the digest
// of its on-disk bytes (the value the next epoch chains to). When the
// file exists but fails to parse, the digest is still returned so the
// damaged bytes can be pinned in an audit verdict.
func ReadManifest(dir string) (*Manifest, string, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, "", err
	}
	sha := cas.SumHex(data)
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, sha, fmt.Errorf("epoch: read manifest in %s: %w", dir, err)
	}
	return &m, sha, nil
}

// epochDirName formats the directory name of epoch n.
func epochDirName(n int64) string { return fmt.Sprintf("epoch-%06d", n) }

// EpochDirName is the exported naming scheme ("epoch-%06d") — the fleet
// artifact server resolves manifest paths with it.
func EpochDirName(n int64) string { return epochDirName(n) }

// epochDirNumber parses an epoch directory name, returning 0 unless the
// name matches the exact epoch-%06d shape — Sscanf alone would accept
// trailing junk like "epoch-2.bak" and alias it to epoch 2.
func epochDirNumber(name string) int64 {
	if !strings.HasPrefix(name, "epoch-") {
		return 0
	}
	var n int64
	if _, err := fmt.Sscanf(name, "epoch-%d", &n); err != nil || n <= 0 {
		return 0
	}
	if name != epochDirName(n) {
		return 0
	}
	return n
}

// Sealed describes one sealed epoch found on disk. A manifest that
// exists but is damaged (unparsable, or claiming the wrong epoch)
// still yields an entry, with Err set and Manifest nil: damaged seals
// are audit evidence — they must surface as REJECT verdicts, not
// vanish from the chain or abort the scan.
type Sealed struct {
	Number      int64
	Dir         string
	Manifest    *Manifest // nil when Err is set
	ManifestSHA string
	Err         error // non-nil when the manifest is damaged
	// Compacted reports a COMPACTED.json marker: retention compaction
	// evicted the epoch's bulk artifacts, and it survives as its stored
	// ACCEPT decision plus checkpoint (see GC). Best-effort here — a
	// damaged marker reads as false and is surfaced by Scrub.
	Compacted bool
}

// readSealed classifies epoch n's directory under the chain directory:
// nil when it holds no manifest (not sealed yet), otherwise the sealed
// epoch — with Err set when the manifest is damaged. Epoch 1's format
// generation is the chain's: any other one is an ErrChainFormat error,
// not a sealed epoch. A later epoch that differs from it is a damaged
// manifest like any other — the server writes the stamp, so the stamp
// cannot excuse an epoch from its audit.
func readSealed(dir string, n int64) (*Sealed, error) {
	epochDir := filepath.Join(dir, epochDirName(n))
	m, sha, err := ReadManifest(epochDir)
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case err != nil:
		return &Sealed{Number: n, Dir: epochDir, ManifestSHA: sha, Err: err}, nil
	case m.Version != ManifestVersion && n == 1:
		return nil, fmt.Errorf("epoch: %s: %w: its format generation is %d, this build reads generation %d",
			dir, ErrChainFormat, m.Version, ManifestVersion)
	case m.Version != ManifestVersion:
		return &Sealed{Number: n, Dir: epochDir, ManifestSHA: sha,
			Err: fmt.Errorf("epoch: manifest in %s is format generation %d, the chain's is %d", epochDir, m.Version, ManifestVersion)}, nil
	case m.Epoch != n:
		return &Sealed{Number: n, Dir: epochDir, ManifestSHA: sha,
			Err: fmt.Errorf("epoch: manifest in %s claims epoch %d", epochDir, m.Epoch)}, nil
	}
	marker, _ := ReadCompacted(epochDir)
	return &Sealed{Number: n, Dir: epochDir, Manifest: m, ManifestSHA: sha, Compacted: marker != nil}, nil
}

// CheckChainFormat returns an ErrChainFormat error when the chain in
// dir was sealed in a format generation this build does not read. A
// chain whose epoch 1 is not sealed yet, or is damaged, passes: the
// first is this build's to write, the second its audit's to REJECT.
func CheckChainFormat(dir string) error {
	_, err := readSealed(dir, 1)
	return err
}

// ListSealed scans dir for sealed epochs (those whose manifest exists,
// intact or damaged) and returns them in epoch order. Unsealed epoch
// directories — the one currently being written, or debris from a
// crash — are skipped. A chain of another format generation is an
// ErrChainFormat error.
func ListSealed(dir string) ([]*Sealed, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*Sealed
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if n := epochDirNumber(e.Name()); n != 0 {
			s, err := readSealed(dir, n)
			if err != nil {
				return nil, err
			}
			if s != nil {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out, nil
}
