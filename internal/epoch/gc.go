package epoch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"orochi/internal/cas"
)

// CompactedName marks an epoch whose bulk artifacts have been evicted
// by retention compaction. The manifest file stays untouched (the hash
// chain over manifests must remain intact), and the epoch survives as
// its stored ACCEPT decision plus checkpoint snapshot — exactly the
// paper's trust artifact for a verified period.
const CompactedName = "COMPACTED.json"

// CompactedMarker is the durable record left behind by compaction.
type CompactedMarker struct {
	Epoch       int64  `json:"epoch"`
	ManifestSHA string `json:"manifest_sha256"`
	// ChainSHA is the audit ledger digest of the ACCEPT decision the
	// compaction trusted.
	ChainSHA      string `json:"chain_sha256"`
	CompactedUnix int64  `json:"compacted_unix"`
}

// ReadCompacted reads an epoch directory's compaction marker, if any.
func ReadCompacted(epochDir string) (*CompactedMarker, error) {
	data, err := os.ReadFile(filepath.Join(epochDir, CompactedName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m CompactedMarker
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("epoch: damaged compaction marker in %s: %w", epochDir, err)
	}
	return &m, nil
}

// checkpointRetrievable reports whether epoch n's checkpoint parses and
// every chunk it names is in store — what compaction needs before it
// may let the epoch's own artifacts go.
func checkpointRetrievable(dir string, store *cas.FS, n int64) bool {
	refs, err := LoadCheckpointRefs(dir, n)
	if err != nil {
		return false
	}
	for _, r := range refs {
		if !store.Has(r.SHA256) {
			return false
		}
	}
	return true
}

// GCOptions tunes a collection pass.
type GCOptions struct {
	// DryRun reports what would be compacted and swept without
	// deleting anything.
	DryRun bool
	// Retain, when > 0, compacts sealed epochs older than the newest
	// Retain: an epoch is compacted only when its stored decision is
	// ACCEPT and its checkpoint snapshot exists — it then survives as
	// decision + checkpoint, and its chunks become eligible for
	// sweeping. Zero means no compaction: only unreferenced (orphan)
	// chunks are swept, and the whole chain stays re-auditable.
	Retain int
}

// GCResult reports what a collection pass did (or, dry-run, would do).
type GCResult struct {
	Epochs     int     // sealed epochs scanned
	Compacted  []int64 // epochs compacted by this pass
	Skipped    []int64 // retention candidates left alone (no ACCEPT decision or checkpoint)
	LiveChunks int
	// Sharing counts the chunk references of the epochs left
	// re-auditable (not compacted) and the distinct chunks behind them.
	Sharing     ChunkSharing
	SweptChunks int
	SweptBytes  int64 // at-rest bytes reclaimed (compressed chunk files)
}

// GC garbage-collects the chain directory's chunk store: it marks the
// chunks every sealed, non-compacted manifest references and every
// chunk a checkpoint names, and sweeps the rest — orphans from crashed
// seals, chunks unreferenced since a compaction.
// A damaged manifest anywhere aborts the pass: damaged seals are audit
// evidence, and a GC that deleted their chunks would destroy it.
func GC(dir string, opts GCOptions) (*GCResult, error) {
	sealed, err := ListSealed(dir)
	if err != nil {
		return nil, err
	}
	res := &GCResult{Epochs: len(sealed)}
	for _, s := range sealed {
		if s.Err != nil {
			return nil, fmt.Errorf("epoch: gc: epoch %d has a damaged manifest (audit evidence, refusing to collect): %w", s.Number, s.Err)
		}
	}
	store, err := OpenChainStore(dir)
	if err != nil {
		return nil, err
	}

	// Retention compaction: mark old verified epochs compacted so their
	// chunks fall out of the live set.
	compacted := make(map[int64]bool)
	for _, s := range sealed {
		marker, err := ReadCompacted(s.Dir)
		if err != nil {
			return nil, fmt.Errorf("epoch: gc: %w", err)
		}
		if marker != nil {
			compacted[s.Number] = true
		}
	}
	if opts.Retain > 0 && len(sealed) > opts.Retain {
		var decisions map[int64]Decision
		cutoff := sealed[len(sealed)-opts.Retain].Number
		for _, s := range sealed {
			if s.Number >= cutoff || compacted[s.Number] {
				continue
			}
			if decisions == nil {
				ds, err := ReadDecisions(dir)
				if err != nil && !os.IsNotExist(err) {
					return nil, fmt.Errorf("epoch: gc: retention needs the decision log: %w", err)
				}
				// No decision log at all: no epoch is verified, every
				// retention candidate is skipped below.
				decisions = make(map[int64]Decision, len(ds))
				for _, d := range ds {
					decisions[d.Epoch] = d
				}
			}
			d, ok := decisions[s.Number]
			if !ok || !d.Accepted {
				res.Skipped = append(res.Skipped, s.Number)
				continue
			}
			if !checkpointRetrievable(dir, store, s.Number) {
				res.Skipped = append(res.Skipped, s.Number)
				continue
			}
			if !opts.DryRun {
				marker := &CompactedMarker{
					Epoch:         s.Number,
					ManifestSHA:   s.ManifestSHA,
					ChainSHA:      d.ChainSHA,
					CompactedUnix: time.Now().Unix(),
				}
				data, err := json.MarshalIndent(marker, "", "  ")
				if err != nil {
					return nil, err
				}
				if err := writeFileDurable(filepath.Join(s.Dir, CompactedName), append(data, '\n')); err != nil {
					return nil, fmt.Errorf("epoch: gc: compact epoch %d: %w", s.Number, err)
				}
			}
			compacted[s.Number] = true
			res.Compacted = append(res.Compacted, s.Number)
		}
	}

	// Mark: every chunk a live manifest still references.
	live := make(map[string]bool)
	var kept []*Sealed
	for _, s := range sealed {
		if compacted[s.Number] {
			continue
		}
		kept = append(kept, s)
		for _, r := range s.Manifest.ChunkRefs() {
			live[r.SHA256] = true
		}
	}
	// Checkpoints are ref lists into the same store: every chunk one
	// names stays live, for compacted epochs (the checkpoint is half of
	// what is left of them) and re-auditable ones (-from resumes off it)
	// alike. A checkpoint that does not parse could name any chunk, so
	// nothing is swept past it.
	for _, s := range sealed {
		refs, err := LoadCheckpointRefs(dir, s.Number)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("epoch: gc: refusing to sweep past an unreadable checkpoint (delete it to drop the checkpoint, or re-audit to rewrite it): %w", err)
		}
		for _, r := range refs {
			live[r.SHA256] = true
		}
	}
	res.LiveChunks = len(live)
	res.Sharing = CountChunkSharing(kept)

	// Sweep.
	stored, err := store.List()
	if err != nil {
		return nil, err
	}
	for _, sha := range stored {
		if live[sha] {
			continue
		}
		res.SweptChunks++
		if fi, err := os.Stat(filepath.Join(store.Root(), sha[:2], sha)); err == nil {
			res.SweptBytes += fi.Size()
		}
		if !opts.DryRun {
			if err := store.Delete(sha); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
