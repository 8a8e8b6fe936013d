package cas

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"orochi/internal/encio"
)

func TestChunkerReassembles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 300<<10)
	rng.Read(data)
	chunks := DefaultChunker.Split(data)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks for %d bytes, got %d", len(data), len(chunks))
	}
	var back []byte
	for _, c := range chunks {
		if len(c) > DefaultChunker.Max {
			t.Fatalf("chunk of %d bytes exceeds max %d", len(c), DefaultChunker.Max)
		}
		back = append(back, c...)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("chunk concatenation does not reproduce input")
	}
	// All but the last chunk must respect the minimum.
	for i, c := range chunks[:len(chunks)-1] {
		if len(c) < DefaultChunker.Min {
			t.Fatalf("chunk %d is %d bytes, below min %d", i, len(c), DefaultChunker.Min)
		}
	}
}

func TestChunkerDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 100<<10)
	rng.Read(data)
	a := DefaultChunker.Split(data)
	b := DefaultChunker.Split(data)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
}

func TestChunkerShiftResistance(t *testing.T) {
	// Content-defined cuts: prepending bytes must not reshuffle every
	// downstream chunk the way fixed-size blocks would.
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, 200<<10)
	rng.Read(data)
	orig := DefaultChunker.Split(data)
	shifted := DefaultChunker.Split(append([]byte("prefix!"), data...))
	origSet := make(map[string]bool, len(orig))
	for _, c := range orig {
		origSet[SumHex(c)] = true
	}
	shared := 0
	for _, c := range shifted {
		if origSet[SumHex(c)] {
			shared++
		}
	}
	if shared < len(orig)/2 {
		t.Fatalf("only %d of %d chunks survived a 7-byte prefix shift", shared, len(orig))
	}
}

func TestChunkerEmptyAndTiny(t *testing.T) {
	if got := DefaultChunker.Split(nil); len(got) != 0 {
		t.Fatalf("empty input produced %d chunks", len(got))
	}
	tiny := []byte("hello")
	chunks := DefaultChunker.Split(tiny)
	if len(chunks) != 1 || !bytes.Equal(chunks[0], tiny) {
		t.Fatalf("tiny input should be one chunk, got %d", len(chunks))
	}
}

func storeImpls(t *testing.T) map[string]Store {
	fsStore, err := OpenFS(filepath.Join(t.TempDir(), "cas"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"fs":     fsStore,
		"memory": NewMemory(),
		"tiered": &Tiered{Hot: NewMemory(), Cold: NewMemory()},
	}
}

// has reports whether m holds sha, unverified.
func has(m *Memory, sha string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.chunks[sha]
	return ok
}

// corrupt flips a byte inside a chunk m holds, for exercising
// digest-mismatch paths.
func corrupt(m *Memory, sha string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if data := m.chunks[sha]; len(data) > 0 {
		data[len(data)/2] ^= 0xff
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("the quick brown fox")
			sha := SumHex(data)
			if _, err := s.Get(sha); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get before Put = %v, want ErrNotFound", err)
			}
			if err := s.Put(sha, data); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(sha, data); err != nil {
				t.Fatalf("idempotent re-Put failed: %v", err)
			}
			got, err := s.Get(sha)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("Get returned %q, want %q", got, data)
			}
		})
	}
}

// TestFSHasListDelete covers the maintenance surface GC and the
// coordinator use on the store of record.
func TestFSHasListDelete(t *testing.T) {
	s, err := OpenFS(filepath.Join(t.TempDir(), "cas"))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox")
	sha := SumHex(data)
	if s.Has(sha) {
		t.Fatal("chunk present before Put")
	}
	if err := s.Put(sha, data); err != nil {
		t.Fatal(err)
	}
	if !s.Has(sha) {
		t.Fatal("chunk missing after Put")
	}
	shas, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(shas) != 1 || shas[0] != sha {
		t.Fatalf("List = %v, want [%s]", shas, sha)
	}
	if err := s.Delete(sha); err != nil {
		t.Fatal(err)
	}
	if s.Has(sha) {
		t.Fatal("chunk present after Delete")
	}
	if err := s.Delete(sha); err != nil {
		t.Fatalf("double Delete should be a no-op: %v", err)
	}
	if _, err := s.Get(sha); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
}

func TestFSDetectsCorruptChunk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cas")
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("orochi audits forever "), 400)
	sha := SumHex(data)
	if err := s.Put(sha, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, sha[:2], sha)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(sha)
	if err == nil {
		t.Fatal("Get returned corrupt chunk without error")
	} else if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "hash to") {
		t.Fatalf("corruption error does not describe the failure: %v", err)
	}
	// The forwarding read verifies too, in the same words: the artifact
	// server relays this text and it becomes a remote REJECT reason.
	if _, serr := s.GetStored(sha); serr == nil || serr.Error() != err.Error() {
		t.Fatalf("GetStored of a corrupt chunk = %v, Get says %v", serr, err)
	}
}

func TestWriteReadBlob(t *testing.T) {
	s := NewMemory()
	rng := rand.New(rand.NewSource(17))
	data := make([]byte, 150<<10)
	rng.Read(data)
	refs, err := WriteBlob(s, DefaultChunker, data)
	if err != nil {
		t.Fatal(err)
	}
	if BlobBytes(refs) != int64(len(data)) {
		t.Fatalf("BlobBytes = %d, want %d", BlobBytes(refs), len(data))
	}
	back, err := ReadBlob(s, refs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("ReadBlob does not reproduce the blob")
	}
}

func TestWriteBlobDedupsRepeats(t *testing.T) {
	s := NewMemory()
	// A page of two maximal chunks holds a content-defined cut whatever
	// the chunker's bounds, so every repeat of it cuts the same way.
	page := make([]byte, 2*DefaultChunker.Max)
	rand.New(rand.NewSource(19)).Read(page)
	blob := bytes.Repeat(page, 4)
	refs, err := WriteBlob(s, DefaultChunker, blob)
	if err != nil {
		t.Fatal(err)
	}
	unique := make(map[string]bool)
	for _, r := range refs {
		unique[r.SHA256] = true
	}
	if len(unique) >= len(refs) {
		t.Fatalf("repeated content produced no duplicate refs (%d refs, %d unique)", len(refs), len(unique))
	}
	if len(s.chunks) != len(unique) {
		t.Fatalf("store holds %d chunks, want %d unique", len(s.chunks), len(unique))
	}
}

func TestReadBlobNamesBadChunk(t *testing.T) {
	s := NewMemory()
	rng := rand.New(rand.NewSource(23))
	data := make([]byte, 60<<10)
	rng.Read(data)
	refs, err := WriteBlob(s, DefaultChunker, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) < 2 {
		t.Fatalf("need at least 2 chunks, got %d", len(refs))
	}
	victim := refs[1]

	// Missing chunk.
	delete(s.chunks, victim.SHA256)
	_, err = ReadBlob(s, refs)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("ReadBlob with missing chunk = %v, want *ChunkError", err)
	}
	if ce.Digest != victim.SHA256 || ce.Index != 1 {
		t.Fatalf("ChunkError names %s@%d, want %s@1", ce.Digest, ce.Index, victim.SHA256)
	}
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing chunk error should wrap ErrNotFound: %v", err)
	}

	// Corrupt chunk.
	if err := s.Put(victim.SHA256, data[:victim.Bytes]); err != nil {
		t.Fatal(err)
	}
	corrupt(s, victim.SHA256)
	_, err = ReadBlob(s, refs)
	if !errors.As(err, &ce) {
		t.Fatalf("ReadBlob with corrupt chunk = %v, want *ChunkError", err)
	}
	if ce.Digest != victim.SHA256 {
		t.Fatalf("ChunkError names %s, want %s", ce.Digest, victim.SHA256)
	}
}

func TestTieredPromotesColdHits(t *testing.T) {
	hot, cold := NewMemory(), NewMemory()
	tiered := &Tiered{Hot: hot, Cold: cold}
	data := []byte("cold chunk")
	sha := SumHex(data)
	if err := cold.Put(sha, data); err != nil {
		t.Fatal(err)
	}
	if has(hot, sha) {
		t.Fatal("hot tier should start empty")
	}
	got, err := tiered.Get(sha)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("tiered Get = %q", got)
	}
	if !has(hot, sha) {
		t.Fatal("cold hit was not promoted to the hot tier")
	}
	// Puts must land in the cold tier of record.
	data2 := []byte("fresh chunk")
	sha2 := SumHex(data2)
	if err := tiered.Put(sha2, data2); err != nil {
		t.Fatal(err)
	}
	if !has(cold, sha2) {
		t.Fatal("Put did not reach the cold tier of record")
	}
}

func TestFSStats(t *testing.T) {
	s, err := OpenFS(filepath.Join(t.TempDir(), "cas"))
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("compressible content for the stats walk. "), 2000)
	refs, err := WriteBlob(s, DefaultChunker, blob)
	if err != nil {
		t.Fatal(err)
	}
	chunks, stored, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	unique := make(map[string]bool)
	for _, r := range refs {
		unique[r.SHA256] = true
	}
	if chunks != len(unique) {
		t.Fatalf("Stats chunks = %d, want %d", chunks, len(unique))
	}
	if stored <= 0 {
		t.Fatalf("Stats storedBytes = %d", stored)
	}
	if stored >= int64(len(blob)) {
		t.Fatalf("gzip-at-rest stored %d bytes for a %d-byte compressible blob", stored, len(blob))
	}
}

func TestFSPutConcurrentSameDigest(t *testing.T) {
	// The Store contract: Put is atomic and idempotent, and concurrent
	// writers of the same digest must all succeed — losers of the rename
	// race find the winner's identical bytes already in place.
	store, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("same chunk, many writers "), 512)
	sha := SumHex(data)
	const writers = 16
	errs := make(chan error, writers)
	start := make(chan struct{})
	for i := 0; i < writers; i++ {
		go func() {
			<-start
			errs <- store.Put(sha, data)
		}()
	}
	close(start)
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent Put failed: %v", err)
		}
	}
	got, err := store.Get(sha)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("chunk unreadable after concurrent Puts: %v", err)
	}
	// No temp debris: every writer either renamed its file in or
	// removed it.
	var stray []string
	err = filepath.Walk(store.Root(), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".tmp") {
			stray = append(stray, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stray) != 0 {
		t.Fatalf("temp files left behind: %v", stray)
	}
}

// TestFSStoredForm: the at-rest form is a first-class way in and out of
// the store. GetStored returns a gzip stream that inflates to exactly
// what Get returns; PutStored files such a stream as it is, and refuses
// — leaving no file — anything that does not inflate to content hashing
// to the name it is filed under.
func TestFSStoredForm(t *testing.T) {
	src, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("a chunk that compresses well. "), 400)
	sha := SumHex(data)
	if err := src.Put(sha, data); err != nil {
		t.Fatal(err)
	}
	stored, err := src.GetStored(sha)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) >= len(data) {
		t.Fatalf("stored form is %d bytes for %d logical", len(stored), len(data))
	}
	inflated, err := encio.Gunzip(stored)
	if err != nil || !bytes.Equal(inflated, data) {
		t.Fatalf("GetStored does not inflate to Get's bytes: %v", err)
	}

	dst, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.PutStored(sha, stored); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dst.Root(), sha[:2], sha))
	if err != nil || !bytes.Equal(onDisk, stored) {
		t.Fatalf("PutStored recompressed or altered the bytes it was given: %v", err)
	}
	if got, err := dst.Get(sha); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after PutStored = %d bytes, %v", len(got), err)
	}

	other, err := encio.Gzip([]byte("different content entirely"))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"hashes to another name": other,
		"not a gzip stream":      data,
		"truncated stream":       stored[:len(stored)/2],
		"trailing garbage":       append(append([]byte(nil), stored...), 0xde, 0xad),
	} {
		wrong := SumHex([]byte(name))
		if name != "hashes to another name" {
			wrong = sha
		}
		fresh, err := OpenFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.PutStored(wrong, bad); err == nil {
			t.Fatalf("%s: PutStored accepted it", name)
		}
		if fresh.Has(wrong) {
			t.Fatalf("%s: a refused PutStored left a chunk behind", name)
		}
		if shas, _ := fresh.List(); len(shas) != 0 {
			t.Fatalf("%s: a refused PutStored left files behind: %v", name, shas)
		}
	}
	if _, err := src.GetStored(SumHex([]byte("absent"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetStored of a missing chunk = %v, want ErrNotFound", err)
	}
}

// TestFanoutDirDurableBeforeUse: two stores share one root, as the
// sealer, an auditor's checkpoints and a co-mounted coordinator do.
// While one of them has made a new fan-out directory but not yet made
// its name durable in the root, the other's Put of a chunk under that
// directory must not return — it could otherwise report a chunk a
// crash loses with its directory, after a manifest named it.
func TestFanoutDirDurableBeforeUse(t *testing.T) {
	root := t.TempDir()
	a, err := OpenFS(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenFS(root)
	if err != nil {
		t.Fatal(err)
	}
	first := []byte("fan-out 0")
	firstSHA := SumHex(first)
	var second []byte
	for i := 1; second == nil; i++ {
		if d := []byte(fmt.Sprintf("fan-out %d", i)); SumHex(d)[:2] == firstSHA[:2] {
			second = d
		}
	}
	parked, release := make(chan string, 2), make(chan struct{})
	fanoutCreated = func(dir string) {
		parked <- dir
		<-release
	}
	t.Cleanup(func() { fanoutCreated = nil })

	aDone := make(chan error, 1)
	go func() { aDone <- a.Put(firstSHA, first) }()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the first Put never created the fan-out directory")
	}
	bDone := make(chan error, 1)
	go func() { bDone <- b.Put(SumHex(second), second) }()
	select {
	case err := <-bDone:
		close(release)
		t.Fatalf("a Put into a fan-out directory whose name is not durable yet returned (%v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	for _, done := range []chan error{aDone, bDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a Put never returned after the root fsync")
		}
	}
	for _, data := range [][]byte{first, second} {
		if got, err := b.Get(SumHex(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get after both Puts = %q, %v", got, err)
		}
	}
}
