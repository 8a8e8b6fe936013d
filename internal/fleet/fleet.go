// Package fleet distributes the audit of a sealed epoch chain across
// machines. The paper's audit phase (§5) is offline, and parallel across
// epochs once each epoch has its initial state: that state is the
// previous epoch's final state, which the previous epoch's redo
// (verifier Phases 1–2, a small share of its audit) fixes before its
// re-execution starts. Three roles cooperate:
//
//   - The artifact server exposes chain state, epoch manifests, and
//     content-addressed chunks straight out of the chain's cas.Store
//     (mounted under /-/fleet/ on orochi-serve, or standalone via
//     orochi-audit -serve-artifacts). Chunks are self-verifying, so the
//     transport needs no trust and the server ships them unopened; a
//     warm worker fetches only chunks it lacks (the gapid
//     isolate-server model).
//
//   - The coordinator drives the chain's epoch.Ledger — the one the
//     in-process auditor drives — with remote executors: it leases each
//     worker the lowest epoch nobody holds, hands a leased epoch the
//     candidate final state posted for the epoch before it, and
//     publishes the verdicts that come back in chain order, so the
//     ledger digest, decisions.jsonl, compacted-epoch adoption and
//     checkpoints are the local auditor's code, not a copy of it. A
//     verdict is published only if the state it was audited from is the
//     one the ledger published for the epoch before; otherwise it is
//     discarded and the epoch leased again. Timed-out leases are
//     reassigned; a sampled fraction of epochs is optionally
//     cross-checked: audited under two leases whose verdicts must agree
//     before one is believed.
//
//   - A worker (orochi-audit -worker) pulls a lease, reconstructs the
//     epoch through a tiered store (local cache over cas.HTTPStore),
//     runs the standard verifier's Phases 1–2, posts the candidate final
//     state they fix, re-executes, and posts back an HMAC-signed
//     verdict.
//
// The at-rest gzip chunk is the one unit the fleet moves, in both
// directions, and each hop verifies it once, at its receiver. The
// artifact server ships a chunk as the bytes its store holds, unread
// beyond the file, and the worker checks it (asking the server to check
// too only when its own check fails; see ArtifactServer). A worker cuts
// its candidate final snapshot (canonical raw bytes) into chunks, posts
// the ordered ref list, and ships — each compressed once, in parallel —
// only the chunks the initial state it was handed did not already
// contain; the coordinator verifies those bytes, files them in the
// chain's store as they are, in parallel, and from then on holds,
// checkpoints and hands out the snapshot as a ref list, which the next
// worker resolves through the same tiered store it reads the epoch
// with. A snapshot that did not change costs a ref list; nobody encodes
// or compresses it twice.
//
// A fleet audit of a chain produces bit-identical verdicts, forensics,
// and chain ledger digest to the single-process auditor, at any worker
// count, lease timeout, or cross-check rate: a worker decides its epoch
// with epoch.PrepareEpoch and epoch.Finish, the functions the local
// auditor calls, the coordinator publishes to the same epoch.Ledger only
// verdicts audited from the state that ledger published, and
// cas.HTTPStore reconstructs local store error shapes byte-for-byte.
package fleet

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"orochi/internal/cas"
	"orochi/internal/verifier"
)

// Prefix is the URL prefix of every fleet endpoint, under the control
// surface so fleet traffic never enters the audited trace.
const Prefix = "/-/fleet"

// SigHeader carries the hex HMAC-SHA256 of the message body, keyed by
// the shared fleet key. Verdict and lease posts are signed by workers;
// lease and init responses are signed by the coordinator.
const SigHeader = "X-Orochi-Fleet-Sig"

// Sign returns the hex HMAC-SHA256 of body under key. An empty key
// returns "" (signing disabled — a development convenience; production
// fleets set -fleet-key).
func Sign(key, body []byte) string {
	if len(key) == 0 {
		return ""
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	return hex.EncodeToString(mac.Sum(nil))
}

// VerifySig reports whether sig authenticates body under key. With an
// empty key every message passes (signing disabled); with a key set, a
// missing or wrong signature fails.
func VerifySig(key, body []byte, sig string) bool {
	if len(key) == 0 {
		return true
	}
	want, err := hex.DecodeString(sig)
	if err != nil {
		return false
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	return hmac.Equal(want, mac.Sum(nil))
}

// signResponse stamps a response body's signature header before the
// body is written.
func signResponse(w http.ResponseWriter, key, body []byte) {
	if sig := Sign(key, body); sig != "" {
		w.Header().Set(SigHeader, sig)
	}
}

// LeaseRequest is a worker asking for work (POST /-/fleet/lease,
// signed).
type LeaseRequest struct {
	Worker string `json:"worker"`
	// Abandoned names the lease the worker dropped without a verdict
	// since its last request, if any: the coordinator ends it, so its
	// epoch is leased again at once instead of after the lease timeout.
	Abandoned string `json:"abandoned,omitempty"`
}

// Lease is one epoch assignment. A worker holds it until it posts a
// valid verdict, hands it back (LeaseRequest.Abandoned) or the
// coordinator's lease timeout expires; any authenticated activity on
// the lease (an init request, a candidate post) renews it.
type Lease struct {
	ID    string `json:"id"`
	Epoch int64  `json:"epoch"`
	// ManifestSHA pins the manifest bytes the worker must fetch;
	// PrevManifestSHA is the digest this epoch's manifest must link to
	// (the chain check is the worker's: epoch.PrepareEpoch makes it).
	ManifestSHA     string `json:"manifest_sha256"`
	PrevManifestSHA string `json:"prev_manifest_sha256"`
	// InitManifest is true when the initial state comes from the epoch's
	// own manifest (epoch 1); otherwise the worker asks the coordinator's
	// init endpoint for it (InitResponse) and names what it got in its
	// verdict (VerdictPost.InitRefs).
	InitManifest bool `json:"init_manifest,omitempty"`
	// CrossCheck marks a replica assignment of a sampled epoch.
	CrossCheck bool `json:"cross_check,omitempty"`
	// DeadlineUnix is when the lease expires unless renewed.
	DeadlineUnix int64 `json:"deadline_unix"`
}

// LeaseResponse answers a lease request: an assignment, a retry hint
// (no work available right now), or done (the chain is fully decided —
// the worker exits).
type LeaseResponse struct {
	Done    bool   `json:"done,omitempty"`
	RetryMS int    `json:"retry_ms,omitempty"`
	Lease   *Lease `json:"lease,omitempty"`
}

// InitResponse answers GET /-/fleet/epoch/{n}/init (signed): the
// initial state to audit a leased epoch from, as the ordered chunk refs
// of a final snapshot of the previous epoch — the one the ledger
// published when epoch n is the ledger's next, otherwise a candidate
// posted for epoch n-1, which the coordinator believes only once it is
// the one published. The chunks are in the coordinator's chain store,
// served by the artifact surface mounted beside it.
type InitResponse struct {
	Epoch    int64     `json:"epoch"`
	Snapshot []cas.Ref `json:"snapshot"`
}

// VerdictPost is the header of a worker's signed post for a leased
// epoch (POST /-/fleet/verdict; see EncodeVerdict for the body): a
// candidate, sent once Phases 1–2 pass, carrying the candidate final
// state (FinalSnapshot and its chunks); then the verdict, carrying the
// audit outcome, its evidence and InitRefs. An ACCEPT's final state is
// its lease's candidate. The coordinator trusts only what it must:
// epoch identity, chain digest, events/requests counts come from its
// own manifest walk.
type VerdictPost struct {
	LeaseID     string `json:"lease_id"`
	Worker      string `json:"worker"`
	Epoch       int64  `json:"epoch"`
	ManifestSHA string `json:"manifest_sha256"`
	// Candidate marks the candidate stage.
	Candidate bool `json:"candidate,omitempty"`
	// InitRefs names the initial state the verdict was audited from, as
	// the init endpoint handed it out (empty for the manifest's own). The
	// verdict is believed only if they are the final state the ledger
	// published for the epoch before.
	InitRefs []cas.Ref `json:"init_refs,omitempty"`
	Accepted bool      `json:"accepted"`
	Reason   string    `json:"reason,omitempty"`
	// Forensics is the structured evidence behind a REJECT, exactly as
	// the in-process auditor would record it.
	Forensics *verifier.Forensics `json:"forensics,omitempty"`
	// Stats is the verifier's cost decomposition for this epoch.
	Stats verifier.Stats `json:"stats"`
	// FinalSnapshot is a candidate's final state — on ACCEPT, the next
	// epoch's trusted initial state — as the ordered refs of
	// object.Snapshot.EncodeRaw cut by cas.DefaultChunker. Empty on a
	// verdict.
	FinalSnapshot []cas.Ref `json:"final_snapshot,omitempty"`
	// Shipped lists, ascending, the indexes into FinalSnapshot whose
	// chunk bytes follow the header. Every other chunk the coordinator
	// must already hold (it was part of the initial state it handed out).
	Shipped []int `json:"shipped,omitempty"`
	// FetchedBytes and LogicalBytes account the transport in logical
	// (inflated) bytes: chunk bytes the worker pulled from the artifact
	// server for this epoch vs the bytes its manifest pins. logical -
	// fetched = the worker's cache hits. WireBytes is what crossed the
	// wire for every chunk fetched for the epoch (its artifacts and its
	// initial state), in the at-rest form chunks travel in.
	FetchedBytes int64 `json:"fetched_bytes"`
	LogicalBytes int64 `json:"logical_bytes"`
	WireBytes    int64 `json:"wire_bytes"`
}

// EncodeVerdict builds the body of a verdict post: a u32 big-endian
// length and the JSON header, then for each entry of p.Shipped a u32
// big-endian length and that chunk's at-rest bytes (a gzip stream, as
// cas.FS stores it) — binary, so a chunk costs its size and not
// four-thirds of it. The signature covers the whole body.
func EncodeVerdict(p *VerdictPost, chunks [][]byte) ([]byte, error) {
	if len(chunks) != len(p.Shipped) {
		return nil, fmt.Errorf("fleet: verdict ships %d chunks but carries %d", len(p.Shipped), len(chunks))
	}
	header, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	size := 4 + len(header)
	for _, c := range chunks {
		size += 4 + len(c)
	}
	body := make([]byte, 0, size)
	body = binary.BigEndian.AppendUint32(body, uint32(len(header)))
	body = append(body, header...)
	for _, c := range chunks {
		body = binary.BigEndian.AppendUint32(body, uint32(len(c)))
		body = append(body, c...)
	}
	return body, nil
}

// DecodeVerdict parses a verdict post body. The returned chunks alias
// body, one per p.Shipped entry. A body whose frames do not add up to
// exactly what the header announces is an error.
func DecodeVerdict(body []byte) (*VerdictPost, [][]byte, error) {
	next := func() ([]byte, error) {
		if len(body) < 4 {
			return nil, errors.New("fleet: truncated verdict frame")
		}
		n := int(binary.BigEndian.Uint32(body))
		if n > len(body)-4 {
			return nil, errors.New("fleet: truncated verdict frame")
		}
		frame := body[4 : 4+n]
		body = body[4+n:]
		return frame, nil
	}
	header, err := next()
	if err != nil {
		return nil, nil, err
	}
	var p VerdictPost
	if err := json.Unmarshal(header, &p); err != nil {
		return nil, nil, fmt.Errorf("fleet: bad verdict header: %w", err)
	}
	chunks := make([][]byte, 0, len(p.Shipped))
	for k, idx := range p.Shipped {
		if idx < 0 || idx >= len(p.FinalSnapshot) || (k > 0 && idx <= p.Shipped[k-1]) {
			return nil, nil, fmt.Errorf("fleet: verdict ships chunk index %d of a %d-chunk snapshot out of order", idx, len(p.FinalSnapshot))
		}
		frame, err := next()
		if err != nil {
			return nil, nil, err
		}
		chunks = append(chunks, frame)
	}
	if len(body) != 0 {
		return nil, nil, errors.New("fleet: trailing bytes after the verdict's chunk frames")
	}
	return &p, chunks, nil
}

// ChainEpoch is one row of the artifact server's chain listing.
type ChainEpoch struct {
	Epoch       int64  `json:"epoch"`
	ManifestSHA string `json:"manifest_sha256"`
	Compacted   bool   `json:"compacted,omitempty"`
	Damaged     bool   `json:"damaged,omitempty"`
}

// ChainInfo is the artifact server's chain state (GET /-/fleet/chain).
type ChainInfo struct {
	Epochs []ChainEpoch `json:"epochs"`
}

// forEach runs fn for every index in [0, n) on up to GOMAXPROCS
// goroutines and returns the error of the lowest index that failed —
// the one a loop in index order would have stopped at.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
