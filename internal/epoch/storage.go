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
// epochs (damaged manifests contribute none).
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
