package epoch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"orochi/internal/cas"
	"orochi/internal/object"
)

// A checkpoint is an accepted epoch's verified final snapshot, kept so
// a later audit can resume past that epoch, a compacted epoch can be
// adopted, and the fleet coordinator can hand the state to whoever
// audits the next epoch. It is stored the way every other sealed
// artifact is: the snapshot's canonical raw bytes are cut into chunks
// in the chain's store, and <dir>/checkpoints/epoch-NNNNNN.json is the
// ordered list of chunk refs. Consecutive snapshots share most of their
// chunks, so a checkpoint costs the chunks its epoch changed, and
// reading one verifies every chunk by digest. The in-process auditor
// and the fleet coordinator share this one format, so a chain is
// resumable by either.

// checkpointFile is the on-disk shape of a checkpoint.
type checkpointFile struct {
	Epoch  int64     `json:"epoch"`
	Chunks []cas.Ref `json:"chunks"`
}

// checkpointPath names epoch n's checkpoint ref list.
func checkpointPath(dir string, n int64) string {
	return filepath.Join(dir, "checkpoints", fmt.Sprintf("epoch-%06d.json", n))
}

// writeCheckpoint records st as epoch n's checkpoint where
// LoadCheckpoint finds it. A state held only in memory (the local
// auditor's) is cut into the chain's chunk store first; one that
// arrives as refs (the fleet coordinator files each state it derives
// before publishing it) costs the one small file. The file is fsynced:
// the chunks it names were durable before it.
func writeCheckpoint(dir string, n int64, st State) error {
	refs := st.Refs
	if refs == nil {
		raw, err := st.Snap.EncodeRaw()
		if err != nil {
			return err
		}
		store, err := OpenChainStore(dir)
		if err != nil {
			return err
		}
		if refs, err = cas.WriteBlob(store, cas.DefaultChunker, raw); err != nil {
			return err
		}
	}
	data, err := json.Marshal(checkpointFile{Epoch: n, Chunks: refs})
	if err != nil {
		return err
	}
	path := checkpointPath(dir, n)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeFileDurable(path, append(data, '\n'))
}

// LoadCheckpointRefs reads epoch n's checkpoint ref list without
// touching the chunks it names.
func LoadCheckpointRefs(dir string, n int64) ([]cas.Ref, error) {
	data, err := os.ReadFile(checkpointPath(dir, n))
	if err != nil {
		return nil, err
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("epoch: damaged checkpoint for epoch %d: %w", n, err)
	}
	if f.Epoch != n {
		return nil, fmt.Errorf("epoch: checkpoint file for epoch %d claims epoch %d", n, f.Epoch)
	}
	return f.Chunks, nil
}

// LoadCheckpoint reads the verified final snapshot of epoch n, written
// by an auditor running with Checkpoints enabled or by a fleet
// coordinator. It lets a later run audit from epoch n+1 without
// replaying the whole chain, trusting the earlier run's verdicts. A
// missing or altered chunk surfaces as the *cas.ChunkError naming it.
func LoadCheckpoint(dir string, n int64) (*object.Snapshot, error) {
	st, err := loadCheckpoint(dir, n)
	return st.Snap, err
}

// loadCheckpoint is LoadCheckpoint keeping the ref list beside the
// snapshot it decodes to.
func loadCheckpoint(dir string, n int64) (State, error) {
	refs, err := LoadCheckpointRefs(dir, n)
	if err != nil {
		return State{}, err
	}
	store, err := OpenChainStore(dir)
	if err != nil {
		return State{}, err
	}
	raw, err := cas.ReadBlob(store, refs)
	if err != nil {
		return State{}, err
	}
	snap, err := object.DecodeSnapshotRaw(raw)
	if err != nil {
		return State{}, err
	}
	return State{Snap: snap, Refs: refs}, nil
}
