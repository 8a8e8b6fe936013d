package cas

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"orochi/internal/encio"
)

// TestTieredPromoteRace hammers promote-on-read from many goroutines
// against a cold chunk: every reader must see the right bytes, the
// promotion must land, and the whole dance must be -race clean (Memory
// guards its map; Tiered itself adds no state).
func TestTieredPromoteRace(t *testing.T) {
	hot, cold := NewMemory(), NewMemory()
	tiered := &Tiered{Hot: hot, Cold: cold}
	data := []byte("a cold chunk everyone wants at once")
	sha := SumHex(data)
	if err := cold.Put(sha, data); err != nil {
		t.Fatal(err)
	}

	const readers = 32
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				got, err := tiered.Get(sha)
				if err != nil {
					errs[i] = err
					return
				}
				if string(got) != string(data) {
					errs[i] = fmt.Errorf("read %q", got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if !has(hot, sha) {
		t.Fatal("cold hit was never promoted to the hot tier")
	}
}

// chunkServer fakes the artifact server's /chunk/<sha> surface for
// HTTPStore error-path tests.
func chunkServer(t *testing.T, handler http.HandlerFunc) *HTTPStore {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/chunk/{sha}", handler)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return NewHTTPStore(ts.URL+"/fleet", nil)
}

// gz is the at-rest (and wire) form of data.
func gz(t *testing.T, data []byte) []byte {
	t.Helper()
	stored, err := encio.Gzip(data)
	if err != nil {
		t.Fatal(err)
	}
	return stored
}

// serveStored answers a chunk request the way the artifact server does:
// the gzip stream, labelled as such.
func serveStored(w http.ResponseWriter, r *http.Request, stored []byte) {
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Set("Content-Length", strconv.Itoa(len(stored)))
	w.Write(stored)
}

func TestHTTPStoreRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("over the wire, compressed once. "), 200)
	sha := SumHex(data)
	stored := gz(t, data)
	store := chunkServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("sha") != sha {
			http.Error(w, "chunk not found", http.StatusNotFound)
			return
		}
		if r.Header.Get("Accept-Encoding") != "gzip" {
			t.Errorf("Get asked for Accept-Encoding %q; it must name gzip itself or net/http inflates behind its back", r.Header.Get("Accept-Encoding"))
		}
		serveStored(w, r, stored)
	})
	got, err := store.Get(sha)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	chunks, logical, wire := store.Fetched()
	if chunks != 1 || logical != int64(len(data)) || wire != int64(len(stored)) {
		t.Fatalf("Fetched = %d chunks, %d logical, %d wire; want 1, %d, %d", chunks, logical, wire, len(data), len(stored))
	}
}

// countingRoundTripper counts response body bytes as they leave the
// real transport — what crossed the wire, before anyone inflates.
type countingRoundTripper struct {
	next http.RoundTripper
	n    atomic.Int64
}

type countingReadCloser struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingReadCloser) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err == nil {
		resp.Body = &countingReadCloser{ReadCloser: resp.Body, n: &c.n}
	}
	return resp, err
}

// TestHTTPStoreWireIsAtRestForm: a transport that counts bytes sees the
// compressed chunk, not its logical size — the store negotiates the
// encoding itself, so net/http's transparent inflate stays out of it.
func TestHTTPStoreWireIsAtRestForm(t *testing.T) {
	data := bytes.Repeat([]byte("<tr><td>review</td><td>score 3</td></tr>\n"), 500)
	sha := SumHex(data)
	stored := gz(t, data)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/chunk/{sha}", func(w http.ResponseWriter, r *http.Request) { serveStored(w, r, stored) })
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ct := &countingRoundTripper{next: http.DefaultTransport}
	store := NewHTTPStore(ts.URL+"/fleet", &http.Client{Transport: ct})
	got, err := store.Get(sha)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	if n := ct.n.Load(); n != int64(len(stored)) || n >= int64(len(data)) {
		t.Fatalf("transport saw %d body bytes; the chunk is %d at rest, %d logical", n, len(stored), len(data))
	}
	if _, _, wire := store.Fetched(); wire != ct.n.Load() {
		t.Fatalf("Fetched reports %d wire bytes, the transport counted %d", wire, ct.n.Load())
	}
}

// TestHTTPStoreNotFound pins the error-relay discipline: a 404 is the
// store of record speaking, so the typed ChunkError wraps ErrNotFound
// with exactly the local store's wording — and is NOT a transport
// fault.
func TestHTTPStoreNotFound(t *testing.T) {
	store := chunkServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "chunk not found", http.StatusNotFound)
	})
	sha := SumHex([]byte("missing"))
	_, err := store.Get(sha)
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Digest != sha {
		t.Fatalf("want *ChunkError naming %s, got %v", short(sha), err)
	}
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("404 must wrap ErrNotFound: %v", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatalf("a 404 is store evidence, not a transport fault: %v", err)
	}
	if want := fmt.Sprintf("cas: get %s: %v", short(sha), ErrNotFound); ce.Err.Error() != want {
		t.Fatalf("error shape diverged from the local store's:\ngot:  %s\nwant: %s", ce.Err, want)
	}
}

// TestHTTPStoreDamagedResponses: a 200 whose body is cut short, does
// not inflate, or inflates to other content — on the first request and
// again on the ?verify=1 one, which the server answers only with bytes
// it has checked — was damaged in flight. Every such case is a
// retryable ErrUnavailable inside a ChunkError, never audit evidence,
// and nothing is counted as fetched. A stream past a chunk's bounds
// (DefaultChunker.Max inflated) is no chunk either, and FS.PutStored
// refuses it without leaving a file.
func TestHTTPStoreDamagedResponses(t *testing.T) {
	data := bytes.Repeat([]byte("these bytes will not arrive intact. "), 100)
	sha := SumHex(data)
	stored := gz(t, data)
	flipped := append([]byte(nil), stored...)
	flipped[len(flipped)/2] ^= 0x40
	// One byte past the chunker's cap, and a stored form past its bound.
	tooBig := bytes.Repeat([]byte{'x'}, DefaultChunker.Max+1)
	tooBigStored := gz(t, tooBig)
	tooLong := make([]byte, maxChunkStored+1)
	rand.New(rand.NewSource(1)).Read(tooLong)
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		mention string
		// sha overrides the digest asked for; putStored, when set, is
		// also offered to FS.PutStored, which must refuse it.
		sha       string
		putStored []byte
	}{
		{"connection cut mid-body", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Encoding", "gzip")
			w.Header().Set("Content-Length", strconv.Itoa(len(stored)))
			w.Write(stored[:8]) // then the handler returns: connection truncated
		}, "reading body", "", nil},
		{"gzip stream truncated", func(w http.ResponseWriter, r *http.Request) {
			serveStored(w, r, stored[:len(stored)-6])
		}, "corrupt response body", "", nil},
		{"byte flipped in the stream", func(w http.ResponseWriter, r *http.Request) {
			serveStored(w, r, flipped)
		}, "", "", nil},
		{"body is not gzip at all", func(w http.ResponseWriter, r *http.Request) {
			w.Write(data)
		}, "corrupt response body", "", nil},
		{"intact stream of other content", func(w http.ResponseWriter, r *http.Request) {
			serveStored(w, r, gz(t, []byte("corrupted in flight")))
		}, "hash to", "", nil},
		{"stream inflates past the chunk bound", func(w http.ResponseWriter, r *http.Request) {
			serveStored(w, r, tooBigStored)
		}, "inflates past", SumHex(tooBig), tooBigStored},
		{"stored form past its bound", func(w http.ResponseWriter, r *http.Request) {
			serveStored(w, r, tooLong)
		}, "exceeds", SumHex(tooLong), tooLong},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := sha
			if tc.sha != "" {
				want = tc.sha
			}
			store := chunkServer(t, tc.handler)
			_, err := store.Get(want)
			var ce *ChunkError
			if !errors.As(err, &ce) || !errors.Is(err, ErrUnavailable) {
				t.Fatalf("must be ErrUnavailable inside ChunkError, got %v", err)
			}
			if errors.Is(err, ErrNotFound) {
				t.Fatalf("a damaged response is not a missing chunk: %v", err)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("error should mention %q: %v", tc.mention, err)
			}
			if chunks, logical, wire := store.Fetched(); chunks+logical+wire != 0 {
				t.Fatalf("a failed Get was counted as fetched: %d chunks, %d logical, %d wire", chunks, logical, wire)
			}
			if tc.putStored == nil {
				return
			}
			fs, err := OpenFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.PutStored(want, tc.putStored); err == nil {
				t.Fatal("PutStored accepted a stream past a chunk's bounds")
			}
			if shas, _ := fs.List(); len(shas) != 0 || fs.Has(want) {
				t.Fatalf("a refused PutStored left files behind: %v", shas)
			}
		})
	}
}

// TestHTTPStoreVerifiesOnMismatch: the server ships at-rest bytes
// unopened, and a body that fails the reader's check is asked for once
// more with ?verify=1, which the server answers from a verified read.
// Damage in transit then heals and is counted once; damage at rest
// comes back as the store's own words, relayed, not as a transport
// fault; and a second bad body is a transport fault.
func TestHTTPStoreVerifiesOnMismatch(t *testing.T) {
	data := bytes.Repeat([]byte("checked once per hop, by the reader. "), 100)
	sha := SumHex(data)
	stored := gz(t, data)
	flipped := append([]byte(nil), stored...)
	flipped[len(flipped)/2] ^= 0x40
	var plain, verified atomic.Int64
	// count tallies a request by kind and reports whether it asked the
	// server to verify.
	count := func(r *http.Request) bool {
		if r.URL.Query().Get("verify") == "1" {
			verified.Add(1)
			return true
		}
		plain.Add(1)
		return false
	}
	requests := func(wantPlain, wantVerified int64) {
		t.Helper()
		if p, v := plain.Swap(0), verified.Swap(0); p != wantPlain || v != wantVerified {
			t.Fatalf("%d plain and %d ?verify=1 requests, want %d and %d", p, v, wantPlain, wantVerified)
		}
	}

	t.Run("damaged in transit, verified re-fetch good", func(t *testing.T) {
		store := chunkServer(t, func(w http.ResponseWriter, r *http.Request) {
			if count(r) {
				serveStored(w, r, stored)
				return
			}
			serveStored(w, r, flipped)
		})
		got, err := store.Get(sha)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get = %d bytes, %v", len(got), err)
		}
		requests(1, 1)
		if chunks, logical, wire := store.Fetched(); chunks != 1 || logical != int64(len(data)) || wire != int64(len(stored)) {
			t.Fatalf("Fetched = %d chunks, %d logical, %d wire; want the good chunk once: 1, %d, %d",
				chunks, logical, wire, len(data), len(stored))
		}
	})

	t.Run("damaged at rest", func(t *testing.T) {
		fs, err := OpenFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.PutStored(sha, flipped); err == nil {
			t.Fatal("PutStored filed a damaged stream")
		}
		if err := fs.PutStored(sha, stored); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fs.path(sha), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		_, want := fs.Get(sha)
		if want == nil {
			t.Fatal("the damaged chunk still reads")
		}
		// The artifact server's answer: the file unopened, or the
		// verified read's outcome.
		store := chunkServer(t, func(w http.ResponseWriter, r *http.Request) {
			read := fs.ReadStored
			if count(r) {
				read = fs.GetStored
			}
			b, err := read(r.PathValue("sha"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			serveStored(w, r, b)
		})
		_, err = store.Get(sha)
		var ce *ChunkError
		if !errors.As(err, &ce) || ce.Err.Error() != want.Error() {
			t.Fatalf("want the store's words %q relayed, got %v", want, err)
		}
		if errors.Is(err, ErrUnavailable) {
			t.Fatalf("damage at rest is evidence, not a transport fault: %v", err)
		}
		requests(1, 1)
		if chunks, _, _ := store.Fetched(); chunks != 0 {
			t.Fatalf("a failed Get was counted as fetched: %d chunks", chunks)
		}
	})

	t.Run("two bad bodies", func(t *testing.T) {
		store := chunkServer(t, func(w http.ResponseWriter, r *http.Request) {
			count(r)
			serveStored(w, r, flipped)
		})
		_, err := store.Get(sha)
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("two bad bodies must be ErrUnavailable, got %v", err)
		}
		requests(1, 1)
	})
}

// TestHTTPStoreChunkAtTheBound: the bounds admit every chunk the chunker
// can cut — DefaultChunker.Max incompressible bytes travel and file.
func TestHTTPStoreChunkAtTheBound(t *testing.T) {
	data := make([]byte, DefaultChunker.Max)
	rand.New(rand.NewSource(2)).Read(data)
	sha := SumHex(data)
	stored := gz(t, data)
	store := chunkServer(t, func(w http.ResponseWriter, r *http.Request) { serveStored(w, r, stored) })
	if got, err := store.Get(sha); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get of a full-size incompressible chunk (%d bytes stored) = %d bytes, %v", len(stored), len(got), err)
	}
	fs, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.PutStored(sha, stored); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPStoreRelaysServerReadError: a 502 carries the server-side
// store's own error text, relayed verbatim so a remote REJECT reason is
// bit-identical to a local one.
func TestHTTPStoreRelaysServerReadError(t *testing.T) {
	sha := SumHex([]byte("rotten at rest"))
	serverErr := fmt.Sprintf("cas: chunk %s is 9 bytes but hashes to deadbeef", short(sha))
	store := chunkServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, serverErr, http.StatusBadGateway)
	})
	_, err := store.Get(sha)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ChunkError, got %v", err)
	}
	if ce.Err.Error() != serverErr {
		t.Fatalf("server error not relayed verbatim:\ngot:  %s\nwant: %s", ce.Err, serverErr)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatalf("a relayed store failure is evidence, not a transport fault: %v", err)
	}
}

// TestHTTPStoreUnreachable: connection refused is ErrUnavailable.
func TestHTTPStoreUnreachable(t *testing.T) {
	store := NewHTTPStore("http://127.0.0.1:1/fleet", nil)
	_, err := store.Get(SumHex([]byte("anything")))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("connection refused must be ErrUnavailable, got %v", err)
	}
}

func TestHTTPStoreRefusesWritesAndBadDigests(t *testing.T) {
	store := chunkServer(t, func(w http.ResponseWriter, r *http.Request) {})
	sha := SumHex([]byte("x"))
	if err := store.Put(sha, []byte("x")); err == nil {
		t.Fatal("Put must be refused")
	}
	if _, err := store.Get("not-a-digest"); err == nil {
		t.Fatal("Get must reject malformed digests before touching the network")
	}
}
