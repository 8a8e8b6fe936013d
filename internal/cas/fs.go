package cas

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"orochi/internal/encio"
)

// FS is the local-filesystem chunk store. Chunks live two levels deep
// (<root>/<sha[:2]>/<sha>) so no single directory grows unbounded, and
// each chunk is gzip-compressed at rest — chunking operates on logical
// (uncompressed) bytes so dedup works, and compression at rest is
// where most of the disk saving comes from. Writes are atomic and
// durable: temp file, fsync, rename, directory fsync, and the root is
// fsynced once when a new fan-out directory appears in it.
type FS struct {
	root string
	abs  string // root as an absolute path: the key prefix in fanoutDirs
}

// OpenFS opens (creating if needed) a filesystem chunk store rooted at
// dir.
func OpenFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: open store: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("cas: open store: %w", err)
	}
	return &FS{root: dir, abs: abs}, nil
}

// fanoutDirs holds, by absolute path, each fan-out directory this
// process is creating whose name is not yet durable in the store's
// root. Several FS values may share one root (the sealer, an auditor's
// checkpoints, a co-mounted coordinator), and a writer that lands a
// chunk in a fan-out directory another one just made must not return
// before that directory survives a crash — or a manifest can name a
// chunk that a crash loses with its directory. A directory in no entry
// was either made by an earlier process or is durable already.
var fanoutDirs sync.Map // string -> *fanout

// fanout is one fan-out directory in creation: done closes once the
// root has been fsynced (err is that fsync's outcome).
type fanout struct {
	done chan struct{}
	err  error
}

// fanoutCreated, when non-nil, runs between a fan-out directory's
// MkdirAll and the root fsync that makes its name durable: a test seam,
// nil in production.
var fanoutCreated func(dir string)

// Root returns the store's root directory.
func (s *FS) Root() string { return s.root }

func (s *FS) path(sha string) string {
	return filepath.Join(s.root, sha[:2], sha)
}

// Put stores data under its digest, atomically. An existing chunk is
// left untouched (chunks are immutable; same digest, same bytes).
func (s *FS) Put(sha string, data []byte) error {
	if !validSHA(sha) {
		return fmt.Errorf("cas: put: bad digest %q", sha)
	}
	if s.Has(sha) {
		return nil
	}
	stored, err := encio.Gzip(data)
	if err != nil {
		return fmt.Errorf("cas: put %s: %w", short(sha), err)
	}
	return s.writeStored(sha, stored)
}

// PutStored stores a chunk that arrives already in its at-rest form (a
// gzip stream, as GetStored returns and the fleet ships), so a chunk
// compressed once by whoever produced it is never compressed again.
// The bytes are written only if they are within a chunk's bounds and
// inflate to content that hashes to sha; anything else is refused and
// leaves no file. An existing chunk is left untouched.
func (s *FS) PutStored(sha string, stored []byte) error {
	if !validSHA(sha) {
		return fmt.Errorf("cas: put: bad digest %q", sha)
	}
	if s.Has(sha) {
		return nil
	}
	if int64(len(stored)) > maxChunkStored {
		return fmt.Errorf("cas: put %s: corrupt chunk: %d bytes stored, a chunk is at most %d", short(sha), len(stored), maxChunkStored)
	}
	data, err := encio.GunzipMax(stored, maxChunkInflated)
	if err != nil {
		return fmt.Errorf("cas: put %s: corrupt chunk: %w", short(sha), err)
	}
	if got := SumHex(data); got != sha {
		return fmt.Errorf("cas: put %s: chunk bytes hash to %s, want %s", short(sha), short(got), short(sha))
	}
	return s.writeStored(sha, stored)
}

// writeStored lands at-rest bytes under sha: temp file, fsync, rename,
// directory fsync.
func (s *FS) writeStored(sha string, stored []byte) error {
	path := s.path(sha)
	// Each writer gets its own temp file: concurrent Puts of the same
	// digest must not interleave writes on a shared temp path or race
	// each other's rename — whichever rename lands last wins, and both
	// leave identical bytes (same digest, same content).
	dir := filepath.Dir(path)
	key := filepath.Join(s.abs, sha[:2])
	tmp, err := os.CreateTemp(dir, sha[:8]+"-*.tmp")
	if os.IsNotExist(err) {
		// First chunk under this fan-out directory. Its name must be
		// durable in the root too, or a crash can lose every chunk under
		// it after a manifest naming them was sealed.
		if err := s.makeFanout(dir, key); err != nil {
			return fmt.Errorf("cas: put %s: %w", short(sha), err)
		}
		tmp, err = os.CreateTemp(dir, sha[:8]+"-*.tmp")
	}
	if err != nil {
		return fmt.Errorf("cas: put %s: %w", short(sha), err)
	}
	if err := awaitFanout(key); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cas: put %s: %w", short(sha), err)
	}
	tmpPath := tmp.Name()
	_, werr := tmp.Write(stored)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("cas: put %s: %w", short(sha), werr)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		if _, serr := os.Stat(path); serr == nil {
			// A concurrent Put already landed this chunk; ours is moot.
			return nil
		}
		return fmt.Errorf("cas: put %s: %w", short(sha), err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("cas: put %s: %w", short(sha), err)
	}
	return nil
}

// makeFanout creates the fan-out directory dir and makes its name
// durable in the root, registered under key while it does so that a
// writer landing a chunk in dir meanwhile waits for the root fsync
// (awaitFanout). A writer that finds dir already in creation waits for
// its creator instead.
func (s *FS) makeFanout(dir, key string) error {
	f := &fanout{done: make(chan struct{})}
	if _, loaded := fanoutDirs.LoadOrStore(key, f); loaded {
		return awaitFanout(key)
	}
	defer fanoutDirs.Delete(key)
	defer close(f.done)
	if f.err = os.MkdirAll(dir, 0o755); f.err != nil {
		return f.err
	}
	if fanoutCreated != nil {
		fanoutCreated(dir)
	}
	f.err = syncDir(s.root)
	return f.err
}

// awaitFanout returns once the fan-out directory under key is durable
// in its root: at once unless this process is creating it right now.
func awaitFanout(key string) error {
	v, ok := fanoutDirs.Load(key)
	if !ok {
		return nil
	}
	f := v.(*fanout)
	<-f.done
	return f.err
}

// Get reads and decompresses the chunk, then verifies its bytes still
// hash to sha — every read is an integrity check.
func (s *FS) Get(sha string) ([]byte, error) {
	_, data, err := s.read(sha)
	return data, err
}

// GetStored is Get for a caller that forwards the chunk rather than
// using it: the chunk is read, inflated and verified exactly as Get
// does (same errors, same text), and what comes back is the at-rest
// gzip stream.
func (s *FS) GetStored(sha string) ([]byte, error) {
	stored, _, err := s.read(sha)
	return stored, err
}

// ReadStored returns the chunk's at-rest bytes as the file holds them,
// neither inflated nor verified: for a caller that forwards the chunk
// to a reader who verifies it anyway. A missing chunk wraps
// ErrNotFound, as Get's does.
func (s *FS) ReadStored(sha string) ([]byte, error) {
	if !validSHA(sha) {
		return nil, fmt.Errorf("cas: get: bad digest %q", sha)
	}
	stored, err := os.ReadFile(s.path(sha))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("cas: get %s: %w", short(sha), ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("cas: get %s: %w", short(sha), err)
	}
	return stored, nil
}

func (s *FS) read(sha string) (stored, data []byte, err error) {
	if stored, err = s.ReadStored(sha); err != nil {
		return nil, nil, err
	}
	data, err = encio.Gunzip(stored)
	if err != nil {
		return nil, nil, fmt.Errorf("cas: get %s: corrupt chunk: %w", short(sha), err)
	}
	if got := SumHex(data); got != sha {
		return nil, nil, fmt.Errorf("cas: get %s: chunk bytes hash to %s, want %s", short(sha), short(got), short(sha))
	}
	return stored, data, nil
}

// Has reports whether the chunk file exists.
func (s *FS) Has(sha string) bool {
	if !validSHA(sha) {
		return false
	}
	_, err := os.Stat(s.path(sha))
	return err == nil
}

// List walks the store and returns every chunk digest.
func (s *FS) List() ([]string, error) {
	var shas []string
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || strings.HasSuffix(path, ".tmp") {
			return nil
		}
		name := d.Name()
		if validSHA(name) {
			shas = append(shas, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cas: list: %w", err)
	}
	return shas, nil
}

// Delete removes a chunk; deleting a missing chunk is a no-op.
func (s *FS) Delete(sha string) error {
	if !validSHA(sha) {
		return fmt.Errorf("cas: delete: bad digest %q", sha)
	}
	err := os.Remove(s.path(sha))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cas: delete %s: %w", short(sha), err)
	}
	return nil
}

// Stats reports the chunk count and at-rest (compressed) bytes — the
// denominator of the storage dedup ratio.
func (s *FS) Stats() (chunks int, storedBytes int64, err error) {
	err = filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || strings.HasSuffix(path, ".tmp") || !validSHA(d.Name()) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		chunks++
		storedBytes += info.Size()
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("cas: stats: %w", err)
	}
	return chunks, storedBytes, nil
}

func validSHA(sha string) bool {
	if len(sha) != 64 {
		return false
	}
	for i := 0; i < len(sha); i++ {
		c := sha[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
