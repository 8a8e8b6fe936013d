package cas

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"orochi/internal/encio"
)

// FS is the local-filesystem chunk store. Chunks live two levels deep
// (<root>/<sha[:2]>/<sha>) so no single directory grows unbounded, and
// each chunk is gzip-compressed at rest — chunking operates on logical
// (uncompressed) bytes so dedup works, and compression at rest is
// where most of the disk saving comes from. Writes are atomic
// (temp file + fsync + rename + dir fsync), matching the durability
// discipline of the epoch log writer.
type FS struct {
	root string
}

// OpenFS opens (creating if needed) a filesystem chunk store rooted at
// dir.
func OpenFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: open store: %w", err)
	}
	return &FS{root: dir}, nil
}

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
	tmp, err := os.CreateTemp(dir, sha[:8]+"-*.tmp")
	if os.IsNotExist(err) {
		// First chunk under this fan-out directory.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("cas: put %s: %w", short(sha), err)
		}
		tmp, err = os.CreateTemp(dir, sha[:8]+"-*.tmp")
	}
	if err != nil {
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

func (s *FS) read(sha string) (stored, data []byte, err error) {
	if !validSHA(sha) {
		return nil, nil, fmt.Errorf("cas: get: bad digest %q", sha)
	}
	stored, err = os.ReadFile(s.path(sha))
	if os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("cas: get %s: %w", short(sha), ErrNotFound)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("cas: get %s: %w", short(sha), err)
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

// writeFileSync writes data to path and fsyncs the file, so a rename
// over it is durable.
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

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
