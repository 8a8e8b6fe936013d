// Package fleet distributes the audit of a sealed epoch chain across
// machines. The paper's audit phase (§5) is offline, and parallel across
// epochs once each epoch has its initial state: that state is the
// previous epoch's final state, which the previous epoch's redo
// (verifier Phases 1–2, a small share of its audit) fixes before its
// re-execution starts. Three roles cooperate:
//
//   - The artifact server exposes epoch manifests and content-addressed
//     chunks straight out of the chain's chunk store
//     (mounted under /-/fleet/ on orochi-serve, or standalone via
//     orochi-audit -serve-artifacts). Chunks are self-verifying, so the
//     transport needs no trust and the server ships them unopened; a
//     warm worker fetches only chunks it lacks (the gapid
//     isolate-server model).
//
//   - The coordinator drives the chain's epoch.Ledger — the one the
//     in-process auditor drives — with remote executors: it leases each
//     worker the lowest epoch nobody holds, hands a leased epoch its
//     initial state, and publishes the verdicts that come back in chain
//     order, so the ledger digest, decisions.jsonl, compacted-epoch
//     adoption and checkpoints are the local auditor's code, not a copy
//     of it. The initial states are the coordinator's own: a period's
//     final state is a function of its initial state and its reports
//     alone (verifier Phase 2, §4.5), and the coordinator holds every
//     sealed report, so it derives each epoch's final state itself
//     (verifier.FinalState), files it in the chain's store as chunks,
//     and hands their refs to whoever audits the next epoch. A verdict
//     is published only if the state it was audited from is the one the
//     ledger published for the epoch before; otherwise it is discarded
//     and the epoch leased again. Timed-out leases are reassigned; a
//     sampled fraction of epochs is optionally cross-checked: audited
//     under two leases whose verdicts must agree before one is believed.
//
//   - A worker (orochi-audit -worker) pulls a lease, reconstructs the
//     epoch through a tiered store (local cache over cas.HTTPStore),
//     runs the standard verifier, and posts back an HMAC-signed JSON
//     verdict. It posts no state: all it can do is report an outcome.
//
// The at-rest gzip chunk is the one unit the fleet moves, and each hop
// verifies it once, at its receiver. The artifact server ships a chunk
// as the bytes its store holds, unread beyond the file, and the worker
// checks it (asking the server to check too only when its own check
// fails; see ArtifactServer). Initial states travel the same way: the
// coordinator's ref list names chunks in the chain store, which a
// worker resolves through the tiered store it reads the epoch with. A
// worker keeps the final state its own redo fixed in its cache, cut as
// the coordinator cuts it, so when it also audits the next epoch the
// hand-off moves a ref list and no chunk.
//
// A fleet audit of a chain produces bit-identical verdicts, forensics,
// and chain ledger digest to the single-process auditor, at any worker
// count, lease timeout, or cross-check rate: a worker decides its epoch
// with epoch.PrepareEpoch and epoch.Finish, the functions the local
// auditor calls, the coordinator publishes to the same epoch.Ledger only
// verdicts audited from the state that ledger published — the state the
// coordinator's own Phase 2 fixed from the same digest-pinned inputs —
// and cas.HTTPStore reconstructs local store error shapes byte-for-byte.
package fleet

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"net/http"

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
	// Renew names a lease the worker is still auditing: the coordinator
	// renews it, if it is still the worker's, and grants nothing (the
	// response is empty). Workers send it every Lease.RenewMS.
	Renew string `json:"renew,omitempty"`
}

// Lease is one epoch assignment. A worker holds it until it posts a
// valid verdict, hands it back (LeaseRequest.Abandoned) or the
// coordinator's lease timeout expires; an init request on the lease, or
// a renewal (LeaseRequest.Renew), renews it.
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
	// RenewMS is how often the worker renews the lease while it audits
	// the epoch (a third of the lease timeout; 0: never), so an audit of
	// any length keeps its lease as long as its worker lives.
	RenewMS int64 `json:"renew_ms,omitempty"`
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
// of the previous epoch's final snapshot — the one the ledger published
// when epoch n is the ledger's next, otherwise the one the coordinator
// derived for epoch n-1, which the ledger publishes if epoch n-1
// ACCEPTs. The chunks are in the coordinator's chain store, served by
// the artifact surface mounted beside it.
type InitResponse struct {
	Epoch    int64     `json:"epoch"`
	Snapshot []cas.Ref `json:"snapshot"`
}

// VerdictPost is a worker's signed JSON post for a leased epoch (POST
// /-/fleet/verdict): the audit outcome, its evidence, and the initial
// state it was audited from. It carries no state of its own — an
// ACCEPT publishes the final state the coordinator derived for the
// epoch — and the coordinator refuses a post with any field it does not
// know. It trusts only what it must: epoch identity, chain digest,
// events/requests counts come from its own manifest walk.
type VerdictPost struct {
	LeaseID     string `json:"lease_id"`
	Worker      string `json:"worker"`
	Epoch       int64  `json:"epoch"`
	ManifestSHA string `json:"manifest_sha256"`
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
