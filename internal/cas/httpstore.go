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
// LogChunker (traces and reports) or DefaultChunker (snapshots: inits,
// checkpoints and the states the fleet coordinator derives, all through
// WriteBlob), so none inflates past
// DefaultChunker.Max, 256 KiB; chains cut when Max was 64 KiB sit well
// inside it. The stored (gzip) form may exceed that by deflate's
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
// gzip stream the server's store holds, sent unopened — and Get
// inflates and hashes them: the one verification of the hop. It asks
// for that encoding itself, so net/http does not inflate behind its
// back and a byte-counting transport underneath sees what actually
// crossed. Error shapes mirror FS.Get byte-for-byte — a missing chunk
// wraps ErrNotFound with the same text, and a chunk damaged at rest
// relays the server's verified-read error verbatim (see Get) — so an
// audit REJECT produced through this store is bit-identical to one
// produced locally. Failures Get can attribute to the transport rather
// than the store of record wrap ErrUnavailable instead.
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
// bytes that crossed the wire for them. A body that failed the check
// counts nowhere, even when the chunk came good on asking again.
func (s *HTTPStore) Fetched() (chunks, logical, wire int64) {
	return s.fetchedChunks.Load(), s.fetchedLogical.Load(), s.fetchedWire.Load()
}

// Get fetches and verifies one chunk. All failures are *ChunkError; the
// wrapped cause distinguishes store evidence (ErrNotFound, a relayed
// server read error) from transport faults (ErrUnavailable).
//
// The server ships a chunk's at-rest bytes unopened, so this check is
// the only one a chunk gets on its way. A body that fails it was
// damaged either at rest or in transit; Get tells the two apart by
// asking once more with ?verify=1, which the server answers only after
// checking the bytes itself: damage at rest comes back as a 502 in the
// store's own words, and damage in transit as good bytes. A second
// body that fails the check is a transport fault.
func (s *HTTPStore) Get(sha string) ([]byte, error) {
	if !validSHA(sha) {
		return nil, &ChunkError{Digest: sha, Err: fmt.Errorf("cas: get: bad digest %q", sha)}
	}
	data, bad, err := s.fetch(sha, "")
	if bad != "" {
		data, bad, err = s.fetch(sha, "?verify=1")
	}
	if bad != "" {
		return nil, unavailable(sha, "%s", bad)
	}
	return data, err
}

// fetch GETs the chunk once, query appended to its URL. A 200 whose body
// fails the check returns why in bad and no error; every other outcome
// is Get's answer.
func (s *HTTPStore) fetch(sha, query string) (data []byte, bad string, err error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/chunk/"+sha+query, nil)
	if err != nil {
		return nil, "", unavailable(sha, "%v", err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, "", unavailable(sha, "%v", err)
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxChunkStored+1))
	switch resp.StatusCode {
	case http.StatusOK:
		if rerr != nil {
			return nil, "", unavailable(sha, "reading body: %v", rerr)
		}
		if int64(len(body)) > maxChunkStored {
			return nil, fmt.Sprintf("chunk exceeds %d bytes", maxChunkStored), nil
		}
		data, err := encio.GunzipMax(body, maxChunkInflated)
		if err != nil {
			return nil, fmt.Sprintf("corrupt response body: %v", err), nil
		}
		if got := SumHex(data); got != sha {
			return nil, fmt.Sprintf("fetched bytes hash to %s, want %s", short(got), short(sha)), nil
		}
		s.fetchedChunks.Add(1)
		s.fetchedLogical.Add(int64(len(data)))
		s.fetchedWire.Add(int64(len(body)))
		return data, "", nil
	case http.StatusNotFound:
		// The store of record says the chunk does not exist: the same
		// evidence, in the same words, as a local FS miss.
		return nil, "", &ChunkError{Digest: sha, Err: fmt.Errorf("cas: get %s: %w", short(sha), ErrNotFound)}
	case http.StatusBadGateway:
		// The server's own verified read failed (corrupt chunk at rest,
		// bad digest); its error text is relayed verbatim so a remote
		// audit rejects with exactly the reason a local one would.
		return nil, "", &ChunkError{Digest: sha, Err: errors.New(strings.TrimSpace(string(body)))}
	default:
		return nil, "", unavailable(sha, "unexpected status %s", resp.Status)
	}
}

// unavailable is the transport-fault failure of a Get of sha.
func unavailable(sha, format string, args ...any) error {
	return &ChunkError{Digest: sha, Err: fmt.Errorf("cas: get %s: %w: %s",
		short(sha), ErrUnavailable, fmt.Sprintf(format, args...))}
}

// Put is refused: workers never write back to the chain's store.
func (s *HTTPStore) Put(sha string, data []byte) error {
	return fmt.Errorf("cas: http store is read-only (put %s refused)", short(sha))
}

var _ Store = (*HTTPStore)(nil)
