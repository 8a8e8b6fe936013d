package fleet

import (
	"encoding/json"
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
// the chain listing, raw epoch manifests, and content-addressed chunks
// straight out of the chain's cas.Store. Everything it serves is
// self-verifying on the client (manifests are pinned by digest in the
// lease, chunks hash to their name), so the server is untrusted
// transport — exactly the paper's posture toward everything below the
// verifier.
//
// Error relay discipline: a missing chunk answers 404 and a failed
// local read answers 502 with the store's error text as the body,
// verbatim. cas.HTTPStore rebuilds local error shapes from those, which
// is what keeps remote REJECT reasons bit-identical to local ones.
//
// A chunk is served in its at-rest form — the gzip stream the store
// holds, labelled Content-Encoding: gzip — so serving one costs a read
// and no compression, and the wire carries what the disk does. The
// server still inflates and digest-checks the chunk first: the 502
// above has to come from the store of record, in the store's words,
// or a chunk damaged at rest would reach the worker as a transport
// fault to retry instead of the evidence it is.
type ArtifactServer struct {
	dir   string
	store *cas.FS

	chunksServed atomic.Int64
	bytesServed  atomic.Int64
}

// ArtifactStats is a point-in-time snapshot of the serving counters.
// BytesServed counts chunk body bytes written, in the form they were
// sent.
type ArtifactStats struct {
	ChunksServed int64
	BytesServed  int64
}

// NewArtifactServer opens the chain directory's chunk store and returns
// a server over it.
func NewArtifactServer(dir string) (*ArtifactServer, error) {
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		return nil, err
	}
	return &ArtifactServer{dir: dir, store: store}, nil
}

// Stats snapshots the serving counters for /-/metrics.
func (a *ArtifactServer) Stats() ArtifactStats {
	return ArtifactStats{
		ChunksServed: a.chunksServed.Load(),
		BytesServed:  a.bytesServed.Load(),
	}
}

// Handler returns the /-/fleet/ artifact surface. Mount it on a mux at
// Prefix+"/" (more specific fleet patterns, like a co-mounted
// coordinator's, may be registered beside it).
func (a *ArtifactServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+Prefix+"/chain", a.chain)
	mux.HandleFunc("GET "+Prefix+"/epoch/{n}/manifest", a.manifest)
	mux.HandleFunc("GET "+Prefix+"/chunk/{sha}", a.chunk)
	mux.HandleFunc("HEAD "+Prefix+"/chunk/{sha}", a.chunkHead)
	return mux
}

func (a *ArtifactServer) chain(w http.ResponseWriter, r *http.Request) {
	sealed, err := epoch.ListSealed(a.dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	info := ChainInfo{Epochs: []ChainEpoch{}}
	for _, s := range sealed {
		info.Epochs = append(info.Epochs, ChainEpoch{
			Epoch:       s.Number,
			ManifestSHA: s.ManifestSHA,
			Compacted:   s.Compacted,
			Damaged:     s.Err != nil,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(info)
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

func (a *ArtifactServer) chunk(w http.ResponseWriter, r *http.Request) {
	stored, err := a.store.GetStored(r.PathValue("sha"))
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

func (a *ArtifactServer) chunkHead(w http.ResponseWriter, r *http.Request) {
	if a.store.Has(r.PathValue("sha")) {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.WriteHeader(http.StatusNotFound)
}
