package epoch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"orochi/internal/cas"
)

// Standard file names inside an epoch directory.
const (
	ManifestName = "MANIFEST.json"
	ReportsName  = "reports.seg"
	InitName     = "init.bin"
)

// ManifestVersionChunked marks a manifest whose artifacts live in the
// chain's content-addressed store as ordered chunk lists. Version 0
// (the field absent) is the original whole-file layout: every artifact
// is a file in the epoch directory, pinned by its file digest.
const ManifestVersionChunked = 2

// FileInfo pins one epoch artifact by name, size, and content digest.
// In a whole-file (v1) manifest the digest is over the artifact's
// on-disk file bytes. In a chunked (v2) manifest Bytes and SHA256
// describe the logical (uncompressed) blob and Chunks lists the
// content-defined chunks that reassemble it, in order.
type FileInfo struct {
	Name   string    `json:"name"`
	Bytes  int64     `json:"bytes"`
	SHA256 string    `json:"sha256"`
	Chunks []cas.Ref `json:"chunks,omitempty"`
}

// Manifest is the seal record of one epoch. Writing it (atomically, as
// the last step of sealing) is what makes an epoch visible to auditors;
// its PrevManifestSHA256 links epochs into a hash chain, so tampering
// with any sealed artifact — or with a past manifest itself — breaks
// verification of everything downstream.
type Manifest struct {
	// Version is the storage schema: 0/absent for whole-file epochs,
	// ManifestVersionChunked for content-addressed ones.
	Version    int   `json:"version,omitempty"`
	Epoch      int64 `json:"epoch"`
	SealedUnix int64 `json:"sealed_unix"`
	Events     int   `json:"events"`
	Requests   int   `json:"requests"`
	// Segments lists the event-log segments in order.
	Segments []SegmentInfo `json:"segments"`
	// Reports pins the report bundle file.
	Reports FileInfo `json:"reports"`
	// Init pins the trusted initial snapshot; only the first epoch of a
	// chain carries one — later epochs derive their trusted initial
	// state from the previous epoch's verified audit (§4.1, §4.5).
	Init *FileInfo `json:"init_snapshot,omitempty"`
	// PrevManifestSHA256 is the digest of the previous epoch's manifest
	// file ("" for the first epoch).
	PrevManifestSHA256 string `json:"prev_manifest_sha256"`
}

// Chunked reports whether the manifest's artifacts live in the chain's
// content-addressed store.
func (m *Manifest) Chunked() bool { return m.Version >= ManifestVersionChunked }

// ChunkRefs returns every chunk reference the manifest pins, across
// segments, reports, and the init snapshot (empty for v1 manifests).
// GC marks live chunks through it; scrub samples from it.
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
// epoch — with Err set when the manifest is damaged.
func readSealed(dir string, n int64) *Sealed {
	epochDir := filepath.Join(dir, epochDirName(n))
	m, sha, err := ReadManifest(epochDir)
	switch {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		return &Sealed{Number: n, Dir: epochDir, ManifestSHA: sha, Err: err}
	case m.Epoch != n:
		return &Sealed{Number: n, Dir: epochDir, ManifestSHA: sha,
			Err: fmt.Errorf("epoch: manifest in %s claims epoch %d", epochDir, m.Epoch)}
	}
	marker, _ := ReadCompacted(epochDir)
	return &Sealed{Number: n, Dir: epochDir, Manifest: m, ManifestSHA: sha, Compacted: marker != nil}
}

// ListSealed scans dir for sealed epochs (those whose manifest exists,
// intact or damaged) and returns them in epoch order. Unsealed epoch
// directories — the one currently being written, or debris from a
// crash — are skipped.
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
			if s := readSealed(dir, n); s != nil {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out, nil
}
