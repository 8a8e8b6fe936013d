package epoch

import (
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

// chunkTrace seals an epoch's events into the store as one blob, the
// trace.EncodeRaw form (each distinct response body once), and returns
// the SegmentInfo pinning it.
func chunkTrace(store cas.Store, events []trace.Event) (SegmentInfo, error) {
	raw, err := (&trace.Trace{Events: events}).EncodeRaw()
	if err != nil {
		return SegmentInfo{}, err
	}
	fi, err := chunkBlob(store, TraceName, raw)
	return SegmentInfo{FileInfo: fi, Events: len(events)}, err
}

// chunkReports seals a report bundle into the store and returns the
// FileInfo pinning its raw blob.
func chunkReports(store cas.Store, rep *reports.Reports) (FileInfo, error) {
	raw, err := rep.EncodeRaw()
	if err != nil {
		return FileInfo{}, err
	}
	return chunkBlob(store, ReportsName, raw)
}

// chunkSnapshot seals a snapshot into the store and returns the
// FileInfo pinning its raw blob.
func chunkSnapshot(store cas.Store, snap *object.Snapshot) (FileInfo, error) {
	raw, err := snap.EncodeRaw()
	if err != nil {
		return FileInfo{}, err
	}
	return chunkBlob(store, InitName, raw)
}

// chunkBlob cuts raw into the store (a chunk it already holds is not
// written again) and pins it under name.
func chunkBlob(store cas.Store, name string, raw []byte) (FileInfo, error) {
	refs, err := cas.WriteBlob(store, cas.DefaultChunker, raw)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: name, Bytes: int64(len(raw)), SHA256: cas.SumHex(raw), Chunks: refs}, nil
}
