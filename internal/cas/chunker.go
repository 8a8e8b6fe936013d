package cas

// Content-defined chunking with a gear-hash rolling window (the
// FastCDC family). Cut points depend only on content, so an insertion
// early in a blob reshuffles at most the chunks around the edit —
// unlike fixed-size blocks, where one shifted byte changes every
// downstream block digest and kills dedup.

// ChunkerOptions bounds chunk sizes. Cuts happen where the rolling
// hash masks to zero once Min bytes are in the window; Max forces a
// cut so a pathological stream cannot produce unbounded chunks. With
// Min = Max every cut is forced: fixed-size blocks, hashing nothing.
type ChunkerOptions struct {
	Min int // no cut before this many bytes
	Avg int // target average chunk size (rounded to a power of two)
	Max int // hard cap; force a cut here
}

// DefaultChunker cuts snapshots — an epoch's init, checkpoints and the
// states the fleet coordinator derives — by content, because consecutive
// states of one chain can share chunks: a content-defined cut survives
// an insertion before it. Its 32 KiB average is a measured constant:
// smaller chunks share little more, and every chunk costs the sealer a
// file, an fsync and a fresh deflate window. Readers take chunks of any
// size (from a fleet peer, up to Max), so chains cut with other bounds
// still read.
var DefaultChunker = ChunkerOptions{Min: 8 << 10, Avg: 32 << 10, Max: 256 << 10}

// LogChunker cuts an epoch's trace and reports at fixed offsets of
// DefaultChunker.Max. No two epochs share a log chunk — every one
// carries per-request ids — so content-defined cuts would buy nothing
// and cost a file, an fsync and a fresh deflate window per 32 KiB; a
// bound-sized chunk is one long deflate stream. It is a var only so
// tests can seal chains with other bounds; fleet readers bound a chunk
// by DefaultChunker.Max, which LogChunker.Max must not exceed.
var LogChunker = ChunkerOptions{Min: DefaultChunker.Max, Avg: DefaultChunker.Max, Max: DefaultChunker.Max}

// Split cuts data into content-defined chunks. The concatenation of
// the returned slices is exactly data (they alias it; callers must not
// mutate). Empty input yields no chunks.
func (c ChunkerOptions) Split(data []byte) [][]byte {
	min, avg, max := c.Min, c.Avg, c.Max
	if min <= 0 {
		min = DefaultChunker.Min
	}
	if avg <= 0 {
		avg = DefaultChunker.Avg
	}
	if max <= 0 {
		max = DefaultChunker.Max
	}
	if max < min {
		max = min
	}
	mask := nextPow2(uint64(avg)) - 1
	var chunks [][]byte
	for len(data) > 0 {
		n := cutPoint(data, min, max, mask)
		chunks = append(chunks, data[:n])
		data = data[n:]
	}
	return chunks
}

// cutPoint returns the length of the first chunk of data. The hash
// shifts one bit per byte, so after 64 bytes it holds nothing of what
// came before them: starting it 64 bytes short of the first possible
// cut gives the same cuts as hashing from the start of the chunk.
func cutPoint(data []byte, min, max int, mask uint64) int {
	if len(data) <= min {
		return len(data)
	}
	end := len(data)
	if end > max {
		end = max
	}
	if min >= max {
		return end
	}
	start := min - 64
	if start < 0 {
		start = 0
	}
	var h uint64
	for i := start; i < end; i++ {
		h = h<<1 + gearTable[data[i]]
		if i >= min && h&mask == 0 {
			return i + 1
		}
	}
	return end
}

func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// gearTable is the 256-entry random table driving the rolling hash.
// It is generated deterministically (splitmix64 from a fixed seed) so
// chunk boundaries — and therefore every chunk digest pinned in a
// manifest — are stable across builds and platforms forever.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()
