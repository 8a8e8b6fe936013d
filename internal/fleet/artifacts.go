package fleet

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"orochi/internal/cas"
	"orochi/internal/epoch"
)

// ArtifactServer serves a chain directory's audit evidence over HTTP:
// raw epoch manifests and content-addressed chunks straight out of the
// chain's chunk store. Everything it serves is self-verifying on the
// client (manifests are pinned by digest in the lease, chunks hash to
// their name), so the server is untrusted transport — exactly the
// paper's posture toward everything below the verifier.
//
// Error relay discipline: a missing chunk answers 404 and a failed
// verified read answers 502 with the store's error text as the body,
// verbatim. cas.HTTPStore rebuilds local error shapes from those, which
// is what keeps remote REJECT reasons bit-identical to local ones.
//
// A chunk is served in its at-rest form — the gzip stream the store
// holds, labelled Content-Encoding: gzip — read and sent unopened, so
// serving one costs a file read and nothing else, and the wire carries
// what the disk does. Every hop verifies a chunk once, at its receiver:
// the worker checks what it is sent. Only when that check fails does
// the worker ask again with ?verify=1, and only then does the server
// inflate and digest-check the chunk first — so a chunk damaged at
// rest still reaches the worker as the store's own 502, the evidence
// it is, and not as a transport fault to retry.
type ArtifactServer struct {
	dir   string
	store *cas.FS

	chunksServed   atomic.Int64
	bytesServed    atomic.Int64
	chunksVerified atomic.Int64
}

// ArtifactStats is a point-in-time snapshot of the serving counters.
// BytesServed counts chunk body bytes written, in the form they were
// sent. ChunksVerified counts the chunk requests a reader sent with
// ?verify=1 because what it was first sent failed its check: 0 on a
// clean chain, so anything else means damage in transit or at rest.
type ArtifactStats struct {
	ChunksServed   int64
	BytesServed    int64
	ChunksVerified int64
}

// NewArtifactServer opens the chain directory's chunk store and returns
// a server over it. A chain of another format generation is refused
// (epoch.ErrChainFormat): its workers could only misread it.
func NewArtifactServer(dir string) (*ArtifactServer, error) {
	if err := epoch.CheckChainFormat(dir); err != nil {
		return nil, err
	}
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		return nil, err
	}
	return &ArtifactServer{dir: dir, store: store}, nil
}

// Stats snapshots the serving counters for /-/metrics.
func (a *ArtifactServer) Stats() ArtifactStats {
	return ArtifactStats{
		ChunksServed:   a.chunksServed.Load(),
		BytesServed:    a.bytesServed.Load(),
		ChunksVerified: a.chunksVerified.Load(),
	}
}

// Handler returns the /-/fleet/ artifact surface. Mount it on a mux at
// Prefix+"/" (more specific fleet patterns, like a co-mounted
// coordinator's, may be registered beside it).
func (a *ArtifactServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+Prefix+"/epoch/{n}/manifest", a.manifest)
	mux.HandleFunc("GET "+Prefix+"/chunk/{sha}", a.chunk)
	return mux
}

func (a *ArtifactServer) manifest(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.ParseInt(r.PathValue("n"), 10, 64)
	if err != nil || n <= 0 {
		http.Error(w, "bad epoch number", http.StatusBadRequest)
		return
	}
	// Raw manifest bytes, not a re-marshal: the client verifies them
	// against the lease's pinned digest, which is a digest of the file.
	data, err := os.ReadFile(filepath.Join(a.dir, epoch.EpochDirName(n), epoch.ManifestName))
	if os.IsNotExist(err) {
		http.Error(w, "epoch not sealed", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// chunk serves a chunk's at-rest bytes unopened, or, asked with
// ?verify=1, only after the store has inflated and digest-checked them.
func (a *ArtifactServer) chunk(w http.ResponseWriter, r *http.Request) {
	read := a.store.ReadStored
	if r.URL.Query().Get("verify") == "1" {
		read = a.store.GetStored
		a.chunksVerified.Add(1)
	}
	stored, err := read(r.PathValue("sha"))
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Set("Content-Length", strconv.Itoa(len(stored)))
		n, _ := w.Write(stored)
		a.chunksServed.Add(1)
		a.bytesServed.Add(int64(n))
	case errors.Is(err, cas.ErrNotFound):
		http.Error(w, "chunk not found", http.StatusNotFound)
	default:
		// The store of record failed to produce verified bytes (corrupt
		// chunk at rest). Relay its error text verbatim: on the worker it
		// becomes the REJECT reason, bit-identical to a local audit's.
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}
