package epoch

import (
	"fmt"
	"os"
	"path/filepath"

	"orochi/internal/cas"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/trace"
)

// CASDirName is the chain directory's content-addressed chunk store.
const CASDirName = "cas"

// StorageMode selects how sealed artifacts are stored.
type StorageMode int

const (
	// StorageChunked (the default) seals artifacts into the chain's
	// content-addressed store: each artifact becomes an ordered list of
	// content-defined chunks pinned in a v2 manifest, and a chunk two
	// artifacts have in common is stored once (CountChunkSharing says
	// how often that happens).
	StorageChunked StorageMode = iota
	// StorageWholeFile is the original v1 layout: every artifact is a
	// whole file inside the epoch directory.
	StorageWholeFile
)

func (m StorageMode) String() string {
	switch m {
	case StorageChunked:
		return "chunked"
	case StorageWholeFile:
		return "whole-file"
	default:
		return fmt.Sprintf("StorageMode(%d)", int(m))
	}
}

// ParseStorageMode maps the CLI flag values onto a StorageMode.
func ParseStorageMode(s string) (StorageMode, error) {
	switch s {
	case "", "chunked", "cas":
		return StorageChunked, nil
	case "whole-file", "wholefile", "file":
		return StorageWholeFile, nil
	default:
		return 0, fmt.Errorf("epoch: unknown storage mode %q (want chunked or whole-file)", s)
	}
}

// OpenChainStore opens (creating if needed) the chain directory's
// chunk store at <dir>/cas.
func OpenChainStore(dir string) (*cas.FS, error) {
	return cas.OpenFS(filepath.Join(dir, CASDirName))
}

// ChunkSharing measures how far the chunk references of a set of
// manifests land on the same chunks. Refs equal to Unique means the
// store deduplicates nothing: every byte saved at rest is compression.
type ChunkSharing struct {
	// Refs counts chunk references across the manifests and RefBytes
	// the logical (uncompressed) bytes behind them — what the manifests
	// pin.
	Refs     int
	RefBytes int64
	// Unique counts the distinct chunks referenced and UniqueBytes
	// their logical bytes — what the store has to hold.
	Unique      int
	UniqueBytes int64
}

// CountChunkSharing tallies the chunk references of the given sealed
// epochs (whole-file and damaged manifests contribute none).
func CountChunkSharing(sealed []*Sealed) ChunkSharing {
	var cs ChunkSharing
	seen := make(map[string]bool)
	for _, s := range sealed {
		if s.Manifest == nil {
			continue
		}
		for _, r := range s.Manifest.ChunkRefs() {
			cs.Refs++
			cs.RefBytes += r.Bytes
			if !seen[r.SHA256] {
				seen[r.SHA256] = true
				cs.Unique++
				cs.UniqueBytes += r.Bytes
			}
		}
	}
	return cs
}

// chunkSegments converts an epoch's finalized on-disk segments into
// chunked form: each segment's records are replayed (checked against
// the framing CRCs) into its events, the events are encoded as one
// logical blob — a single record, so like the file it holds each
// distinct response body once — the blob is cut into the store, and the
// segment file is removed. The returned SegmentInfos pin the logical
// blob (Bytes, SHA256) plus its chunk list; Name, Records, and Events
// carry over from the file form.
func chunkSegments(store cas.Store, epochDir string, segs []SegmentInfo) ([]SegmentInfo, error) {
	out := make([]SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		path := filepath.Join(epochDir, seg.Name)
		_, events, err := readSegmentFile(path, true)
		if err != nil {
			return nil, fmt.Errorf("epoch: chunk segment %s: %w", seg.Name, err)
		}
		raw, err := (&trace.Trace{Events: events}).EncodeRaw()
		if err != nil {
			return nil, fmt.Errorf("epoch: chunk segment %s: %w", seg.Name, err)
		}
		refs, err := cas.WriteBlob(store, cas.DefaultChunker, raw)
		if err != nil {
			return nil, fmt.Errorf("epoch: chunk segment %s: %w", seg.Name, err)
		}
		out = append(out, SegmentInfo{
			Name:    seg.Name,
			Bytes:   int64(len(raw)),
			Records: seg.Records,
			Events:  seg.Events,
			SHA256:  cas.SumHex(raw),
			Chunks:  refs,
		})
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("epoch: chunk segment %s: %w", seg.Name, err)
		}
	}
	return out, nil
}

// chunkReports seals a report bundle directly into the store (no
// intermediate file) and returns the FileInfo pinning its raw blob.
func chunkReports(store cas.Store, rep *reports.Reports) (FileInfo, error) {
	raw, err := rep.EncodeRaw()
	if err != nil {
		return FileInfo{}, err
	}
	refs, err := cas.WriteBlob(store, cas.DefaultChunker, raw)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: ReportsName, Bytes: int64(len(raw)), SHA256: cas.SumHex(raw), Chunks: refs}, nil
}

// chunkSnapshot seals a snapshot directly into the store and returns
// the FileInfo pinning its raw blob.
func chunkSnapshot(store cas.Store, snap *object.Snapshot) (FileInfo, error) {
	raw, err := snap.EncodeRaw()
	if err != nil {
		return FileInfo{}, err
	}
	refs, err := cas.WriteBlob(store, cas.DefaultChunker, raw)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: InitName, Bytes: int64(len(raw)), SHA256: cas.SumHex(raw), Chunks: refs}, nil
}

// MigrateChain moves a whole-file (v1) chain's sealed artifacts into
// the chain's chunk store, each file stored as one blob keyed by the
// digest its manifest already pins. Manifests are not rewritten — the
// hash chain, prior decisions, and checkpoints all stay bit-identical
// — and the load path falls back from the epoch directory to the
// store, so a migrated chain audits exactly as before. Files are
// verified against their manifest digests before the originals are
// removed. It returns the number of files moved; chunked (v2) epochs
// are left alone.
func MigrateChain(dir string) (int, error) {
	sealed, err := ListSealed(dir)
	if err != nil {
		return 0, err
	}
	store, err := OpenChainStore(dir)
	if err != nil {
		return 0, err
	}
	moved := 0
	for _, s := range sealed {
		if s.Err != nil {
			return moved, fmt.Errorf("epoch: migrate: epoch %d has a damaged manifest (audit evidence, not migrating): %w", s.Number, s.Err)
		}
		if s.Manifest.Chunked() {
			continue
		}
		var files []FileInfo
		for _, seg := range s.Manifest.Segments {
			files = append(files, FileInfo{Name: seg.Name, Bytes: seg.Bytes, SHA256: seg.SHA256})
		}
		files = append(files, s.Manifest.Reports)
		if s.Manifest.Init != nil {
			files = append(files, *s.Manifest.Init)
		}
		for _, fi := range files {
			path := filepath.Join(s.Dir, fi.Name)
			data, err := os.ReadFile(path)
			if os.IsNotExist(err) && store.Has(fi.SHA256) {
				continue // already migrated
			}
			if err != nil {
				return moved, fmt.Errorf("epoch: migrate epoch %d: %s: %w", s.Number, fi.Name, err)
			}
			if got := cas.SumHex(data); got != fi.SHA256 {
				return moved, fmt.Errorf("epoch: migrate epoch %d: %s: digest mismatch (manifest %s, disk %s) — refusing to move damaged evidence",
					s.Number, fi.Name, short(fi.SHA256), short(got))
			}
			if err := store.Put(fi.SHA256, data); err != nil {
				return moved, fmt.Errorf("epoch: migrate epoch %d: %s: %w", s.Number, fi.Name, err)
			}
			if err := os.Remove(path); err != nil {
				return moved, fmt.Errorf("epoch: migrate epoch %d: %s: %w", s.Number, fi.Name, err)
			}
			moved++
		}
	}
	return moved, nil
}
