package encio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// readAllGunzip is GunzipMax as it was before it sized its output from
// the trailer: io.ReadAll under a limit. It is the reference every
// stream must inflate the same against, bytes or error.
func readAllGunzip(data []byte, max int64) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var r io.Reader = zr
	if max > 0 {
		r = io.LimitReader(zr, max+1)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if max > 0 && int64(len(out)) > max {
		return nil, fmt.Errorf("stream inflates past %d bytes", max)
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

func mustGzip(t *testing.T, data []byte) []byte {
	t.Helper()
	z, err := Gzip(data)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// withISIZE returns a copy of stream with its trailer's ISIZE set to n.
func withISIZE(stream []byte, n uint32) []byte {
	out := bytes.Clone(stream)
	binary.LittleEndian.PutUint32(out[len(out)-4:], n)
	return out
}

func testData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"audit ", "epoch ", "chunk ", "trace ", "report ", "\n"}
	var b bytes.Buffer
	for b.Len() < n {
		if rng.Intn(8) == 0 {
			fmt.Fprintf(&b, "%d ", rng.Int63())
		} else {
			b.WriteString(words[rng.Intn(len(words))])
		}
	}
	return b.Bytes()[:n]
}

// TestGunzipMaxMatchesReadAll: the trailer's ISIZE is only a hint. A
// stream whose ISIZE is smaller, larger, above max, or belongs to a
// second concatenated member inflates to the same bytes, or fails with
// the same error, as reading it whole did.
func TestGunzipMaxMatchesReadAll(t *testing.T) {
	data := testData(40<<10, 1)
	tail := testData(3<<10, 2)
	honest := mustGzip(t, data)
	second := mustGzip(t, tail)
	n := uint32(len(data))
	streams := map[string][]byte{
		"honest":                honest,
		"isize smaller":         withISIZE(honest, n-100),
		"isize zero":            withISIZE(honest, 0),
		"isize larger":          withISIZE(honest, n+100),
		"isize max uint32":      withISIZE(honest, ^uint32(0)),
		"empty":                 mustGzip(t, nil),
		"two members":           append(bytes.Clone(honest), second...),
		"two members, ISIZE 0":  append(bytes.Clone(honest), withISIZE(second, 0)...),
		"two members, ISIZE 1M": append(bytes.Clone(honest), withISIZE(second, 1<<20)...),
		"truncated":             honest[:len(honest)-9],
		"trailing garbage":      append(bytes.Clone(honest), "junk"...),
		"header only":           honest[:10],
		"not gzip":              []byte("this is not a gzip stream at all"),
	}
	bad := bytes.Clone(honest)
	bad[len(bad)/2] ^= 0x40
	streams["damaged body"] = bad
	for name, stream := range streams {
		for _, max := range []int64{0, 1, int64(n) - 1, int64(n), int64(n) + 1, int64(n + 3<<10), 1 << 20} {
			want, wantErr := readAllGunzip(stream, max)
			got, err := GunzipMax(stream, max)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s, max %d: error %v, want %v", name, max, err, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, max %d: %d bytes differ from the reference's %d", name, max, len(got), len(want))
			}
		}
	}
}

// TestGunzipOneOutputBuffer: inflating a 256 KiB chunk allocates one
// buffer of its size, not the doubling series growing it would (which
// came to 4.5 times the output). The inflater's own allocations, a
// Huffman link table per dynamic block, come to a few hundred bytes.
// Under the race detector only the round trip is checked.
func TestGunzipOneOutputBuffer(t *testing.T) {
	data := testData(256<<10, 3)
	stream := mustGzip(t, data)
	if out, err := Gunzip(stream); err != nil || !bytes.Equal(out, data) {
		t.Fatalf("Gunzip: %v", err)
	}
	if raceEnabled {
		t.Log("allocation budget not checked under the race detector")
		return
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Gunzip(stream); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(len(data))*17/16 {
		t.Fatalf("inflating %d bytes allocated %d bytes per run, want one buffer of the output's size", len(data), per)
	}
}

// TestGzipWriterSurvivesGC: a Gzip after two collections (which empty
// a sync.Pool and its victim cache) reuses an idle compressor instead
// of building a new one of about a megabyte, and writes the bytes a
// fresh writer at gzipLevel writes. Under the race detector only the
// bytes are checked.
func TestGzipWriterSurvivesGC(t *testing.T) {
	data := testData(4<<10, 4)
	var want bytes.Buffer
	zw, err := gzip.NewWriterLevel(&want, gzipLevel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	mustGzip(t, data) // leaves a writer idle
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := mustGzip(t, data)
	runtime.ReadMemStats(&after)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("a reused writer wrote %d bytes that differ from a fresh writer's %d", len(got), want.Len())
	}
	if raceEnabled {
		t.Log("allocation budget not checked under the race detector")
		return
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("Gzip after a GC allocated %d bytes, want no new compressor", n)
	}
}
