package lang

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// The program cache is content-keyed: sha256 over the (name, source)
// pairs of the app. The server and the verifier of the same epoch —
// and every audit of every epoch of the same app — therefore share one
// *Program, which also shares the lazily-lowered compiled form
// (Program.compiled), so Phase-3 never recompiles what serving already
// compiled.
//
// The cache is LRU-bounded: a long-lived process that compiles many
// distinct sources (the public CompileApp, orochi-audit -src) would
// otherwise keep one program per source forever. Eviction only drops
// the cache's reference — a *Program is immutable after compilation and
// every holder keeps its own pointer, so a program in use by a server
// or an in-flight audit is unaffected; only a future CompileCached of
// the same bytes pays a recompile.

// progCacheCap bounds the cached program count. 128 programs is far
// above any live serving set (one per app version in play) while
// keeping the worst case — a caller compiling thousands of distinct
// sources — at a bounded footprint.
const progCacheCap = 128

var (
	progCache = struct {
		mu      sync.Mutex
		entries map[[32]byte]*list.Element
		order   *list.List // front = most recently used
	}{entries: make(map[[32]byte]*list.Element), order: list.New()}
	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64
	cacheEvictions atomic.Uint64
)

// progEntry is one cache slot: the content key and its program.
type progEntry struct {
	key  [32]byte
	prog *Program
}

// CompileCached is Compile behind a process-wide content-keyed LRU
// cache. Identical sources (same script names, same bytes) return the
// same *Program while the entry is resident. Compile errors are not
// cached.
func CompileCached(files map[string]string) (*Program, error) {
	key := sourceKey(files)
	progCache.mu.Lock()
	if el, ok := progCache.entries[key]; ok {
		progCache.order.MoveToFront(el)
		progCache.mu.Unlock()
		cacheHits.Add(1)
		return el.Value.(*progEntry).prog, nil
	}
	progCache.mu.Unlock()

	// Compile outside the lock: a slow compile must not stall hits for
	// unrelated programs. Two goroutines racing on the same new key both
	// compile; the store below keeps one result for both.
	prog, err := Compile(files)
	if err != nil {
		return nil, err
	}
	cacheMisses.Add(1)

	progCache.mu.Lock()
	defer progCache.mu.Unlock()
	if el, ok := progCache.entries[key]; ok {
		// Lost the race: adopt the winner so concurrent callers share one
		// *Program, as before the bound.
		progCache.order.MoveToFront(el)
		return el.Value.(*progEntry).prog, nil
	}
	progCache.entries[key] = progCache.order.PushFront(&progEntry{key: key, prog: prog})
	for progCache.order.Len() > progCacheCap {
		oldest := progCache.order.Back()
		progCache.order.Remove(oldest)
		delete(progCache.entries, oldest.Value.(*progEntry).key)
		cacheEvictions.Add(1)
	}
	return prog, nil
}

// MustCompileCached is CompileCached, panicking on error (for tests and
// embedded apps whose source is known-good).
func MustCompileCached(files map[string]string) *Program {
	p, err := CompileCached(files)
	if err != nil {
		panic(err)
	}
	return p
}

// CacheStats returns the cumulative program-cache hit/miss counters,
// surfaced at /-/metrics as orochi_lang_cache_{hits,misses}.
func CacheStats() (hits, misses uint64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// CacheEvictions returns the cumulative count of programs dropped by
// the LRU bound, surfaced at /-/metrics as
// orochi_lang_cache_evictions.
func CacheEvictions() uint64 {
	return cacheEvictions.Load()
}

func sourceKey(files map[string]string) [32]byte {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		// Length-prefixed so (name, source) boundaries cannot alias.
		fmt.Fprintf(h, "%d:", len(n))
		io.WriteString(h, n)
		fmt.Fprintf(h, "%d:", len(files[n]))
		io.WriteString(h, files[n])
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}
