package cas

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"orochi/internal/encio"
)

// ErrUnavailable marks a chunk fetch that failed for transport reasons:
// connection refused, timeout, a truncated or corrupted response body,
// an unexpected HTTP status. It is NOT evidence about the chain — the
// store of record never vouched for bad bytes — so callers must retry
// or surface an internal fault, never turn it into an audit verdict.
// Contrast ErrNotFound and a server-reported read error (both relayed
// verbatim), which are the store of record speaking and therefore are
// the same audit evidence a local read would produce.
var ErrUnavailable = errors.New("cas: store unavailable")

// Bounds on one chunk that arrives from another process — a backstop
// against a misbehaving peer streaming forever or shipping a stream
// that inflates without end. Every chunk a chain holds was cut by
// DefaultChunker (WriteBlob for sealed artifacts and checkpoints,
// DefaultChunker.Split for the snapshots fleet workers ship), so none
// inflates past its Max, 256 KiB; chains cut when Max was 64 KiB sit
// well inside it. The stored (gzip) form may exceed that by deflate's
// framing on incompressible bytes — 5 bytes per stored block of at
// most 64 KiB plus an 18-byte gzip header and trailer — which 1 KiB
// covers with room to spare.
var (
	maxChunkInflated = int64(DefaultChunker.Max)
	maxChunkStored   = maxChunkInflated + 1<<10
)

// HTTPStore is a read-only Store backed by a fleet artifact server
// (internal/fleet): Get fetches /chunk/<sha> and verifies the bytes
// against the digest client-side, so a worker composing it as the cold
// tier of a Tiered store reads with exactly the integrity guarantees of
// a local FS store. Chunks cross the wire in their at-rest form — the
// gzip stream the server's store holds, sent as it is — and Get
// inflates them; it asks for that encoding itself, so net/http does not
// inflate behind its back and a byte-counting transport underneath
// sees what actually crossed. Error shapes mirror FS.Get byte-for-byte
// — a missing chunk wraps ErrNotFound with the same text, and a
// server-side read failure relays the server's error string verbatim —
// so an audit REJECT produced through this store is bit-identical to
// one produced locally. Failures Get can attribute to the transport
// rather than the store of record wrap ErrUnavailable instead.
//
// Writes are refused: the artifact server owns the chain.
type HTTPStore struct {
	base   string // e.g. "http://host:8090/-/fleet"
	client *http.Client

	fetchedChunks  atomic.Int64
	fetchedLogical atomic.Int64
	fetchedWire    atomic.Int64
}

// NewHTTPStore returns a store reading from the artifact server mounted
// at base (the fleet prefix, e.g. "http://host:8090/-/fleet"). A nil
// client gets a dedicated one with an explicit timeout — fleet clients
// never wait forever on a wedged peer.
func NewHTTPStore(base string, client *http.Client) *HTTPStore {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &HTTPStore{base: strings.TrimSuffix(base, "/"), client: client}
}

// Fetched reports what Get has pulled from the server: how many chunks,
// their logical (inflated) bytes — the numerator of a warm worker's
// cache-hit accounting, comparable with what manifests pin — and the
// bytes that crossed the wire for them.
func (s *HTTPStore) Fetched() (chunks, logical, wire int64) {
	return s.fetchedChunks.Load(), s.fetchedLogical.Load(), s.fetchedWire.Load()
}

// Get fetches and verifies one chunk. All failures are *ChunkError; the
// wrapped cause distinguishes store evidence (ErrNotFound, a relayed
// server read error) from transport faults (ErrUnavailable).
func (s *HTTPStore) Get(sha string) ([]byte, error) {
	if !validSHA(sha) {
		return nil, &ChunkError{Digest: sha, Err: fmt.Errorf("cas: get: bad digest %q", sha)}
	}
	unavailable := func(format string, args ...any) ([]byte, error) {
		return nil, &ChunkError{Digest: sha, Err: fmt.Errorf("cas: get %s: %w: %s",
			short(sha), ErrUnavailable, fmt.Sprintf(format, args...))}
	}
	req, err := http.NewRequest(http.MethodGet, s.base+"/chunk/"+sha, nil)
	if err != nil {
		return unavailable("%v", err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := s.client.Do(req)
	if err != nil {
		return unavailable("%v", err)
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxChunkStored+1))
	switch resp.StatusCode {
	case http.StatusOK:
		if rerr != nil {
			return unavailable("reading body: %v", rerr)
		}
		if int64(len(body)) > maxChunkStored {
			return unavailable("chunk exceeds %d bytes", maxChunkStored)
		}
		// The server verifies at-rest bytes on every read before
		// serving them, so a body that does not inflate, or inflates to
		// other content, means the transport truncated or corrupted the
		// response — retryable, never evidence against the chain.
		data, err := encio.GunzipMax(body, maxChunkInflated)
		if err != nil {
			return unavailable("corrupt response body: %v", err)
		}
		if got := SumHex(data); got != sha {
			return unavailable("fetched bytes hash to %s, want %s", short(got), short(sha))
		}
		s.fetchedChunks.Add(1)
		s.fetchedLogical.Add(int64(len(data)))
		s.fetchedWire.Add(int64(len(body)))
		return data, nil
	case http.StatusNotFound:
		// The store of record says the chunk does not exist: the same
		// evidence, in the same words, as a local FS miss.
		return nil, &ChunkError{Digest: sha, Err: fmt.Errorf("cas: get %s: %w", short(sha), ErrNotFound)}
	case http.StatusBadGateway:
		// The server's own read failed (corrupt chunk at rest, bad
		// digest); its error text is relayed verbatim so a remote audit
		// rejects with exactly the reason a local one would.
		return nil, &ChunkError{Digest: sha, Err: errors.New(strings.TrimSpace(string(body)))}
	default:
		return unavailable("unexpected status %s", resp.Status)
	}
}

// Has asks the server whether the chunk exists (HEAD, no bytes moved).
// Transport failures read as false, matching the interface's no-error
// contract; callers that must distinguish follow up with Get.
func (s *HTTPStore) Has(sha string) bool {
	if !validSHA(sha) {
		return false
	}
	req, err := http.NewRequest(http.MethodHead, s.base+"/chunk/"+sha, nil)
	if err != nil {
		return false
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Put is refused: workers never write back to the chain's store.
func (s *HTTPStore) Put(sha string, data []byte) error {
	return fmt.Errorf("cas: http store is read-only (put %s refused)", short(sha))
}

// List is unsupported over HTTP; GC runs where the store lives.
func (s *HTTPStore) List() ([]string, error) {
	return nil, errors.New("cas: http store does not support List")
}

// Delete is refused: workers never mutate the chain's store.
func (s *HTTPStore) Delete(sha string) error {
	return fmt.Errorf("cas: http store is read-only (delete %s refused)", short(sha))
}

var _ Store = (*HTTPStore)(nil)
