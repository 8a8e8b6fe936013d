package epoch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"orochi/internal/cas"
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

// ResumeError reports that an audit asked to start at epoch From has
// no readable checkpoint of epoch From-1 to start from.
type ResumeError struct {
	From int64
	Err  error
}

func (e *ResumeError) Error() string {
	return fmt.Sprintf("epoch: resuming at epoch %d needs epoch %d's checkpoint (a full audit writes it): %v",
		e.From, e.From-1, e.Err)
}

func (e *ResumeError) Unwrap() error { return e.Err }

// ResumeState is the trusted initial state a driver starts its ledger
// with at epoch from: none for epoch 1, whose manifest pins its own,
// and otherwise epoch from-1's checkpoint, trusting the run that wrote
// it. It reads the ref list only; the chunks are read, and verified,
// when the state itself is needed (State.Snapshot). Both the local
// auditor and the fleet coordinator start through it, so a chain
// resumes the same way under either. A missing or damaged ref list is
// a *ResumeError.
func ResumeState(dir string, from int64) (State, error) {
	if from <= 1 {
		return State{}, nil
	}
	refs, err := LoadCheckpointRefs(dir, from-1)
	if err != nil {
		return State{}, &ResumeError{From: from, Err: err}
	}
	return State{Refs: refs}, nil
}

// loadCheckpoint reads epoch n's checkpoint whole: the ref list and the
// snapshot it decodes to. A missing or altered chunk surfaces as the
// *cas.ChunkError naming it.
func loadCheckpoint(dir string, n int64) (State, error) {
	refs, err := LoadCheckpointRefs(dir, n)
	if err != nil {
		return State{}, err
	}
	store, err := OpenChainStore(dir)
	if err != nil {
		return State{}, err
	}
	st := State{Refs: refs}
	st.Snap, err = st.Snapshot(store)
	return st, err
}
