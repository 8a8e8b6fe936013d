package epoch

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"orochi/internal/cas"
	"orochi/internal/verifier"
)

// PhaseScrub tags forensics for retrievability failures found by the
// storage self-audit rather than a full chain audit.
const PhaseScrub = "scrub"

// ScrubOptions tunes a retrievability pass.
type ScrubOptions struct {
	// Sample is how many chunks are spot-checked per epoch (default
	// 16; negative checks every chunk). The challenged chunks are
	// drawn pseudo-randomly per pass, so repeated passes cover the
	// store even at small samples — the proofs-of-retrievability
	// argument: a server missing any fraction of the chunks fails a
	// random challenge with probability growing per check.
	Sample int
}

// checkpointArtifact is the ScrubFailure.Name of a compacted epoch's
// checkpoint (its ref list, or with Chunk set one of its chunks).
const checkpointArtifact = "checkpoint"

// ScrubFailure names one artifact that failed its challenge.
type ScrubFailure struct {
	Epoch int64  `json:"epoch"`
	Name  string `json:"name"`            // artifact (segment/reports/init/manifest/checkpoint)
	Chunk string `json:"chunk,omitempty"` // chunk digest, "" when a whole file (manifest, marker, ref list) failed
	Err   string `json:"err"`
}

func (f ScrubFailure) String() string {
	if f.Chunk != "" {
		return fmt.Sprintf("epoch %d %s chunk %s: %s", f.Epoch, f.Name, f.Chunk, f.Err)
	}
	return fmt.Sprintf("epoch %d %s: %s", f.Epoch, f.Name, f.Err)
}

// ScrubResult summarizes one retrievability pass.
type ScrubResult struct {
	Epochs        int // sealed epochs challenged
	Compacted     int // epochs verified as decision+checkpoint only
	ChunksChecked int
	FilesChecked  int // compacted epochs' checkpoint ref lists read
	Failures      []ScrubFailure
}

// OK reports whether every challenge passed.
func (r *ScrubResult) OK() bool { return len(r.Failures) == 0 }

// Scrub is the storage self-audit: it walks the manifest hash chain
// and challenge-reads randomly sampled chunks of every sealed epoch,
// verifying each against its digest — cheap assurance that archived
// epochs are still intact and retrievable without re-auditing (or even
// fully re-reading) them. Chain-link breaks, unreadable manifests, and
// failed challenges are reported as failures, not errors; an error is
// an internal fault (the chain directory itself unreadable).
func Scrub(ctx context.Context, dir string, opts ScrubOptions) (*ScrubResult, error) {
	if opts.Sample == 0 {
		opts.Sample = 16
	}
	// The challenges come from the clock, so the server cannot predict
	// them.
	seed := time.Now().UnixNano()
	sealed, err := ListSealed(dir)
	if err != nil {
		return nil, err
	}
	store, err := OpenChainStore(dir)
	if err != nil {
		return nil, err
	}
	res := &ScrubResult{}
	// challenge reads a pseudo-random sample of an epoch's chunk refs and
	// records every one that is missing, altered, or not the pinned size.
	challenge := func(epoch int64, refs []cas.Ref, artifact func(i int) string) {
		rng := rand.New(rand.NewSource(seed ^ epoch))
		for _, i := range sampleIndexes(rng, len(refs), opts.Sample) {
			r := refs[i]
			data, err := store.Get(r.SHA256)
			switch {
			case err != nil:
				res.Failures = append(res.Failures, ScrubFailure{
					Epoch: epoch, Name: artifact(i), Chunk: r.SHA256, Err: err.Error()})
			case int64(len(data)) != r.Bytes:
				res.Failures = append(res.Failures, ScrubFailure{
					Epoch: epoch, Name: artifact(i), Chunk: r.SHA256,
					Err: fmt.Sprintf("chunk is %d bytes, manifest pins %d", len(data), r.Bytes)})
			}
			res.ChunksChecked++
		}
	}
	prevSHA := ""
	chainBroken := false
	for _, s := range sealed {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("epoch: %w: %w", verifier.ErrAuditCanceled, context.Cause(ctx))
		}
		res.Epochs++
		if s.Err != nil {
			res.Failures = append(res.Failures, ScrubFailure{
				Epoch: s.Number, Name: ManifestName, Err: s.Err.Error()})
			chainBroken = true
			continue
		}
		// Walk the hash chain: a swapped-out manifest fails here even if
		// every byte it points at is retrievable. After a break the
		// remaining epochs are still challenged (their artifacts may be
		// fine), but their links are no longer meaningful.
		if !chainBroken && s.Manifest.PrevManifestSHA256 != prevSHA {
			res.Failures = append(res.Failures, ScrubFailure{
				Epoch: s.Number, Name: ManifestName,
				Err: fmt.Sprintf("chain link mismatch: manifest links to %s, previous is %s",
					short(s.Manifest.PrevManifestSHA256), short(prevSHA))})
			chainBroken = true
		}
		prevSHA = s.ManifestSHA

		marker, err := ReadCompacted(s.Dir)
		if err != nil {
			res.Failures = append(res.Failures, ScrubFailure{
				Epoch: s.Number, Name: CompactedName, Err: err.Error()})
			continue
		}
		if marker != nil {
			// Compacted epochs survive as decision + checkpoint; the
			// challenge is that the checkpoint's ref list still reads and
			// its sampled chunks are still what it names.
			res.Compacted++
			res.FilesChecked++
			refs, err := LoadCheckpointRefs(dir, s.Number)
			if err != nil {
				res.Failures = append(res.Failures, ScrubFailure{
					Epoch: s.Number, Name: checkpointArtifact, Err: err.Error()})
				continue
			}
			challenge(s.Number, refs, func(int) string { return checkpointArtifact })
			continue
		}

		challenge(s.Number, s.Manifest.ChunkRefs(), func(i int) string { return artifactOfChunk(s.Manifest, i) })
	}
	return res, nil
}

// samplePicks k distinct indexes out of n (all of them when k < 0 or
// k >= n), in ascending order.
func sampleIndexes(rng *rand.Rand, n, k int) []int {
	if n == 0 {
		return nil
	}
	if k < 0 || k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)[:k]
	// Ascending order keeps failure reports stable to read.
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && perm[j] < perm[j-1]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm
}

// artifactOfChunk maps a flat ChunkRefs index back to the artifact
// that owns it, for failure reports.
func artifactOfChunk(m *Manifest, idx int) string {
	for _, seg := range m.Segments {
		if idx < len(seg.Chunks) {
			return seg.Name
		}
		idx -= len(seg.Chunks)
	}
	if idx < len(m.Reports.Chunks) {
		return m.Reports.Name
	}
	idx -= len(m.Reports.Chunks)
	if m.Init != nil && idx < len(m.Init.Chunks) {
		return m.Init.Name
	}
	return "unknown"
}

// scrubDecision converts a scrub failure into a durable REJECT
// decision for an epoch that has never been audited: retrievability
// loss is audit evidence, and recording it through the same ledger the
// chain auditor uses means the console, -explain, and the ack workflow
// all see it. Epochs that already hold a decision are annotated
// instead (DecisionLog.MarkScrubFailed) — a verdict line would replace
// the stored decision whole, and destroying a compacted epoch's ACCEPT
// over one failed challenge would brick the chain unrecoverably.
func scrubDecision(manifestSHA string, f ScrubFailure) Decision {
	detail := f.String()
	now := time.Now().UTC()
	return Decision{
		Epoch:    f.Epoch,
		Accepted: false,
		Reason:   fmt.Sprintf("retrievability: %s", detail),
		Forensics: &verifier.Forensics{
			Phase:  PhaseScrub,
			Check:  "retrievability",
			Detail: detail,
		},
		ManifestSHA: manifestSHA,
		DecidedAt:   now,
		Resolution:  ResolutionOpen,
		ScrubFailed: true,
		ScrubDetail: detail,
		ScrubAt:     now,
	}
}

// RecordScrubFailures records a pass's failures in the chain's decision
// log, one entry per failed epoch (the first failure per epoch wins).
// An epoch that already holds a decision is annotated — its verdict,
// resolution, and metrics stand, so an ACCEPT (a compacted epoch's only
// trust artifact) is never downgraded and an acknowledged REJECT is
// never reopened; an epoch already flagged stays flagged without
// another line, so a persistent failure re-challenged by the background
// scrubber every pass does not grow the log. Only an epoch with no
// decision at all gets a fresh scrub REJECT verdict. It returns how
// many lines were appended.
func RecordScrubFailures(log *DecisionLog, dir string, res *ScrubResult) (int, error) {
	if res.OK() {
		return 0, nil
	}
	shaByEpoch := make(map[int64]string)
	if sealed, err := ListSealed(dir); err == nil {
		for _, s := range sealed {
			shaByEpoch[s.Number] = s.ManifestSHA
		}
	}
	seen := make(map[int64]bool)
	appended := 0
	for _, f := range res.Failures {
		if seen[f.Epoch] {
			continue
		}
		seen[f.Epoch] = true
		if d, ok := log.Get(f.Epoch); ok {
			if d.ScrubFailed {
				continue
			}
			if err := log.MarkScrubFailed(f.Epoch, f.String()); err != nil {
				return appended, err
			}
			appended++
			continue
		}
		if err := log.Append(scrubDecision(shaByEpoch[f.Epoch], f)); err != nil {
			return appended, err
		}
		appended++
	}
	return appended, nil
}

// ScrubberOptions tunes the background scrubber.
type ScrubberOptions struct {
	// Interval between passes (default 5m).
	Interval time.Duration
	// Sample per epoch per pass (ScrubOptions.Sample).
	Sample int
}

// ScrubberStatus is a point-in-time view of the background scrubber.
type ScrubberStatus struct {
	Runs          int64
	ChunksChecked int64
	FilesChecked  int64
	Failures      int64 // total failed challenges across all passes
	LastRun       time.Time
	LastFailures  int // failures in the most recent pass
	LastErr       string
}

// Scrubber periodically scrubs a chain directory in the background and
// records failures in the decision log (annotating epochs that already
// hold a decision, REJECTing only never-audited ones — see
// RecordScrubFailures). It shares the auditor's
// DecisionLog — two writers on the same decisions.jsonl would corrupt
// the event stream, so the serve CLI passes Auditor.Decisions() in.
type Scrubber struct {
	dir  string
	log  *DecisionLog
	opts ScrubberOptions

	mu     sync.Mutex
	status ScrubberStatus
}

// NewScrubber builds a background scrubber over the chain in dir,
// recording failures to log (which must be the same DecisionLog any
// concurrent auditor uses).
func NewScrubber(dir string, log *DecisionLog, opts ScrubberOptions) *Scrubber {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Minute
	}
	return &Scrubber{dir: dir, log: log, opts: opts}
}

// Run scrubs every Interval until ctx is cancelled.
func (s *Scrubber) Run(ctx context.Context) {
	ticker := time.NewTicker(s.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.RunOnce(ctx)
		}
	}
}

// RunOnce performs one scrub pass and records any failures.
func (s *Scrubber) RunOnce(ctx context.Context) (*ScrubResult, error) {
	res, err := Scrub(ctx, s.dir, ScrubOptions{Sample: s.opts.Sample})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status.Runs++
	s.status.LastRun = time.Now()
	if err != nil {
		s.status.LastErr = err.Error()
		return nil, err
	}
	s.status.LastErr = ""
	s.status.ChunksChecked += int64(res.ChunksChecked)
	s.status.FilesChecked += int64(res.FilesChecked)
	s.status.Failures += int64(len(res.Failures))
	s.status.LastFailures = len(res.Failures)
	if !res.OK() && s.log != nil {
		if _, err := RecordScrubFailures(s.log, s.dir, res); err != nil {
			s.status.LastErr = err.Error()
		}
	}
	return res, nil
}

// Status reports the scrubber's counters so far.
func (s *Scrubber) Status() ScrubberStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}
