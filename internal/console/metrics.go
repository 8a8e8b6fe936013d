package console

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"orochi/internal/epoch"
	"orochi/internal/lang"
	"orochi/internal/verifier"
)

// metrics serves /-/metrics in the Prometheus text exposition format,
// hand-rolled so the repository stays dependency-free. Counters are
// recomputed from the components' synchronized state on every scrape —
// there is no separate accumulator to drift from the ledger, and a
// restarted process resumes its audit counters from the rehydrated
// decision log rather than from zero.
func (c *Console) metrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	p := promWriter{&b}
	now := time.Now()

	p.family("orochi_uptime_seconds", "gauge", "Seconds since the process started serving.")
	p.sample("orochi_uptime_seconds", "", now.Sub(c.started).Seconds())

	// The content-keyed program cache is process-wide: the server and
	// the background verifier share compiled programs by source digest.
	langHits, langMisses := lang.CacheStats()
	p.family("orochi_lang_cache_hits", "counter", "Compiles answered by the content-keyed program cache.")
	p.sample("orochi_lang_cache_hits", "", float64(langHits))
	p.family("orochi_lang_cache_misses", "counter", "Compiles that built (and cached) a fresh program.")
	p.sample("orochi_lang_cache_misses", "", float64(langMisses))
	p.family("orochi_lang_cache_evictions", "counter", "Programs dropped by the cache's LRU bound (held references stay valid).")
	p.sample("orochi_lang_cache_evictions", "", float64(lang.CacheEvictions()))

	if c.srv != nil {
		cpu, n := c.srv.CPU()
		p.family("orochi_requests_total", "counter", "Requests executed on the audited surface.")
		p.sample("orochi_requests_total", "", float64(n))
		p.family("orochi_request_cpu_seconds_total", "counter", "Handler CPU time spent executing audited requests.")
		p.sample("orochi_request_cpu_seconds_total", "", cpu.Seconds())
		p.family("orochi_inflight_requests", "gauge", "Requests currently executing.")
		p.sample("orochi_inflight_requests", "", float64(c.srv.InFlight()))
	}

	var maxSealed int64
	if c.mgr != nil {
		st := c.mgr.Status()
		var bytesLogged int64
		for _, s := range st.Sealed {
			bytesLogged += s.Bytes
			if s.Epoch > maxSealed {
				maxSealed = s.Epoch
			}
		}
		p.family("orochi_epochs_sealed_total", "counter", "Epochs sealed by the pipeline since start.")
		p.sample("orochi_epochs_sealed_total", "", float64(len(st.Sealed)))
		p.family("orochi_epoch_bytes_logged_total", "counter", "On-disk bytes of sealed epochs (trace, reports, init snapshot).")
		p.sample("orochi_epoch_bytes_logged_total", "", float64(bytesLogged))
		p.family("orochi_epoch_current_events", "gauge", "Trace events buffered in the epoch currently being cut.")
		p.sample("orochi_epoch_current_events", "", float64(st.CurrentEvents))
		p.family("orochi_pipeline_failed", "gauge", "1 when the epoch pipeline has failed and stopped sealing, else 0.")
		p.sample("orochi_pipeline_failed", "", boolGauge(st.Err != ""))

		// Content-addressed storage: at-rest footprint vs the logical
		// bytes the manifests pin, and how many of the manifests' chunk
		// references land on a chunk another reference already named.
		if store, err := epoch.OpenChainStore(c.mgr.Dir()); err == nil {
			if chunks, storedBytes, err := store.Stats(); err == nil {
				p.family("orochi_storage_chunks", "gauge", "Chunks in the chain's content-addressed store.")
				p.sample("orochi_storage_chunks", "", float64(chunks))
				p.family("orochi_storage_bytes", "gauge", "At-rest bytes of the chunk store (compressed).")
				p.sample("orochi_storage_bytes", "", float64(storedBytes))
				p.family("orochi_storage_dedup_ratio", "gauge", "Logical sealed bytes (the table-encoded artifacts the manifests pin) divided by at-rest bytes; compression included, so >1 does not by itself mean chunks are shared — compare chunk_refs with chunk_refs_unique.")
				ratio := float64(0)
				if storedBytes > 0 {
					ratio = float64(bytesLogged) / float64(storedBytes)
				}
				p.sample("orochi_storage_dedup_ratio", "", ratio)
			}
		}
		if sealed, err := epoch.ListSealed(c.mgr.Dir()); err == nil {
			cs := epoch.CountChunkSharing(sealed)
			p.family("orochi_storage_chunk_refs", "gauge", "Chunk references across all sealed manifests.")
			p.sample("orochi_storage_chunk_refs", "", float64(cs.Refs))
			p.family("orochi_storage_chunk_refs_unique", "gauge", "Distinct chunks those references name (equal to chunk_refs = no chunk is shared).")
			p.sample("orochi_storage_chunk_refs_unique", "", float64(cs.Unique))
			p.family("orochi_storage_chunk_ref_bytes", "gauge", "Logical (uncompressed) bytes behind all chunk references.")
			p.sample("orochi_storage_chunk_ref_bytes", "", float64(cs.RefBytes))
			p.family("orochi_storage_chunk_unique_bytes", "gauge", "Logical (uncompressed) bytes of the distinct chunks.")
			p.sample("orochi_storage_chunk_unique_bytes", "", float64(cs.UniqueBytes))
		}
	}

	if c.scrubber != nil {
		st := c.scrubber.Status()
		p.family("orochi_scrub_runs_total", "counter", "Retrievability self-audit passes completed.")
		p.sample("orochi_scrub_runs_total", "", float64(st.Runs))
		p.family("orochi_scrub_checks_total", "counter", "Challenge-reads performed by the scrubber, by artifact kind.")
		p.sample("orochi_scrub_checks_total", `kind="chunk"`, float64(st.ChunksChecked))
		p.sample("orochi_scrub_checks_total", `kind="file"`, float64(st.FilesChecked))
		p.family("orochi_scrub_failures_total", "counter", "Failed retrievability challenges across all passes.")
		p.sample("orochi_scrub_failures_total", "", float64(st.Failures))
		p.family("orochi_scrub_last_failures", "gauge", "Failed challenges in the most recent scrub pass.")
		p.sample("orochi_scrub_last_failures", "", float64(st.LastFailures))
		if !st.LastRun.IsZero() {
			p.family("orochi_scrub_last_run_timestamp_seconds", "gauge", "Unix time of the most recent scrub pass.")
			p.sample("orochi_scrub_last_run_timestamp_seconds", "", float64(st.LastRun.Unix()))
		}
	}

	if c.auditor != nil {
		verdicts := c.auditor.Verdicts()
		var accepted, rejected int
		var sum verifier.Stats
		for _, v := range verdicts {
			if v.Accepted {
				accepted++
			} else {
				rejected++
			}
			sum.ProcOpRep += v.Stats.ProcOpRep
			sum.DBRedo += v.Stats.DBRedo
			sum.ReExec += v.Stats.ReExec
			sum.DBQuery += v.Stats.DBQuery
			sum.Other += v.Stats.Other
			sum.RequestsReplayed += v.Stats.RequestsReplayed
			sum.GroupBatches += v.Stats.GroupBatches
			sum.DedupHits += v.Stats.DedupHits
			sum.DedupMisses += v.Stats.DedupMisses
		}
		p.family("orochi_epochs_audited_total", "counter", "Epoch verdicts published, by outcome.")
		p.sample("orochi_epochs_audited_total", `verdict="accept"`, float64(accepted))
		p.sample("orochi_epochs_audited_total", `verdict="reject"`, float64(rejected))

		// Lag counts sealed epochs the auditor has not yet verified. With
		// no manager wired in (an offline chain audit) it reads 0 rather
		// than guessing at the directory.
		lastAudited := c.auditor.NextEpoch() - 1
		lag := float64(0)
		if maxSealed > lastAudited {
			lag = float64(maxSealed - lastAudited)
		}
		p.family("orochi_audit_lag_epochs", "gauge", "Sealed epochs awaiting an audit verdict.")
		p.sample("orochi_audit_lag_epochs", "", lag)

		// DBQuery is a sub-component of the re-execution phase, so the
		// phase samples are overlapping by design (re-execution includes
		// db-query); Total is the authoritative wall figure.
		p.family("orochi_audit_phase_seconds_total", "counter", "Audit CPU decomposition by verifier phase (db-query is included in re-execution).")
		p.sample("orochi_audit_phase_seconds_total", `phase="`+verifier.PhaseProcessOpReports+`"`, sum.ProcOpRep.Seconds())
		p.sample("orochi_audit_phase_seconds_total", `phase="`+verifier.PhaseRedo+`"`, sum.DBRedo.Seconds())
		p.sample("orochi_audit_phase_seconds_total", `phase="`+verifier.PhaseReExec+`"`, sum.ReExec.Seconds())
		p.sample("orochi_audit_phase_seconds_total", `phase="db-query"`, sum.DBQuery.Seconds())
		p.sample("orochi_audit_phase_seconds_total", `phase="other"`, sum.Other.Seconds())

		p.family("orochi_audit_requests_replayed_total", "counter", "Requests whose responses the audit re-derived (Phase 3 coverage).")
		p.sample("orochi_audit_requests_replayed_total", "", float64(sum.RequestsReplayed))
		p.family("orochi_audit_groups_reexecuted_total", "counter", "Control-flow group batches actually re-executed (the deduplicated unit of work).")
		p.sample("orochi_audit_groups_reexecuted_total", "", float64(sum.GroupBatches))

		// The paper's headline effect (§3.1): requests audited per
		// re-execution batch. 1.0 means no dedup; the wiki/forum/hotcrp
		// workloads sit well above it.
		p.family("orochi_audit_dedup_ratio", "gauge", "Requests replayed per re-executed group batch (higher = more SIMD dedup).")
		ratio := float64(0)
		if sum.GroupBatches > 0 {
			ratio = float64(sum.RequestsReplayed) / float64(sum.GroupBatches)
		}
		p.sample("orochi_audit_dedup_ratio", "", ratio)

		p.family("orochi_audit_dedup_cache_hits_total", "counter", "Simulated-op query results served from the dedup cache.")
		p.sample("orochi_audit_dedup_cache_hits_total", "", float64(sum.DedupHits))
		p.family("orochi_audit_dedup_cache_misses_total", "counter", "Simulated-op query results computed fresh.")
		p.sample("orochi_audit_dedup_cache_misses_total", "", float64(sum.DedupMisses))

		if log := c.decisions(); log != nil {
			unacked, scrubFlagged := 0, 0
			for _, d := range log.Decisions() {
				if !d.Accepted && d.Resolution == epoch.ResolutionOpen {
					unacked++
				}
				if d.ScrubFailed {
					scrubFlagged++
				}
			}
			p.family("orochi_rejects_unacked", "gauge", "REJECT decisions no operator has acknowledged yet.")
			p.sample("orochi_rejects_unacked", "", float64(unacked))
			p.family("orochi_scrub_flagged_epochs", "gauge", "Epochs whose stored decision carries a failed-retrievability annotation.")
			p.sample("orochi_scrub_flagged_epochs", "", float64(scrubFlagged))
		}
	}

	if c.artifacts != nil {
		st := c.artifacts.Stats()
		p.family("orochi_fleet_chunks_served_total", "counter", "Chunks served to fleet workers from this chain's store.")
		p.sample("orochi_fleet_chunks_served_total", "", float64(st.ChunksServed))
		p.family("orochi_fleet_chunks_verified_total", "counter", "Chunks re-read with verification at a reader's request, because what it was first sent failed its check (0 on a clean chain).")
		p.sample("orochi_fleet_chunks_verified_total", "", float64(st.ChunksVerified))
		p.family("orochi_fleet_chunk_bytes_served_total", "counter", "Chunk bytes written to fleet workers, in the at-rest (gzip) form chunks are served in.")
		p.sample("orochi_fleet_chunk_bytes_served_total", "", float64(st.BytesServed))
	}

	if c.coord != nil {
		st := c.coord.Stats()
		p.family("orochi_fleet_workers", "gauge", "Distinct workers seen by the fleet coordinator.")
		p.sample("orochi_fleet_workers", "", float64(st.WorkersSeen))
		p.family("orochi_fleet_leases_active", "gauge", "Epoch leases currently held by workers.")
		p.sample("orochi_fleet_leases_active", "", float64(st.LeasesActive))
		p.family("orochi_fleet_leases_reassigned_total", "counter", "Leases that timed out and were reassigned.")
		p.sample("orochi_fleet_leases_reassigned_total", "", float64(st.LeasesReassigned))
		p.family("orochi_fleet_epochs_decided_total", "counter", "Epochs whose verdict the coordinator has published.")
		p.sample("orochi_fleet_epochs_decided_total", "", float64(st.EpochsDecided))
		p.family("orochi_fleet_cross_check_epochs_total", "counter", "Epochs decided by a cross-check quorum.")
		p.sample("orochi_fleet_cross_check_epochs_total", "", float64(st.EpochsCrossChecked))
		p.family("orochi_fleet_cross_check_mismatches_total", "counter", "Cross-checked epochs whose replica verdicts disagreed (REJECT with forensics naming both workers).")
		p.sample("orochi_fleet_cross_check_mismatches_total", "", float64(st.CrossCheckMismatches))
		p.family("orochi_fleet_bad_signature_posts_total", "counter", "Fleet posts refused for a missing or wrong HMAC signature.")
		p.sample("orochi_fleet_bad_signature_posts_total", "", float64(st.BadSignaturePosts))
		p.family("orochi_fleet_stale_verdicts_total", "counter", "Verdict posts ignored because their lease had expired or was never held.")
		p.sample("orochi_fleet_stale_verdicts_total", "", float64(st.StaleVerdicts))
		p.family("orochi_fleet_init_mismatch_total", "counter", "Verdicts discarded because the initial state they were audited from is not the one the ledger published for the epoch before (0 on an honest fleet).")
		p.sample("orochi_fleet_init_mismatch_total", "", float64(st.InitMismatches))
		p.family("orochi_fleet_epochs_in_flight", "gauge", "Epochs past the ledger's next that hold a lease, a candidate or an unpublished verdict.")
		p.sample("orochi_fleet_epochs_in_flight", "", float64(st.EpochsInFlight))
		p.family("orochi_fleet_fetched_bytes_total", "counter", "Logical (inflated) bytes of the epoch chunks workers reported fetching.")
		p.sample("orochi_fleet_fetched_bytes_total", "", float64(st.FetchedBytes))
		p.family("orochi_fleet_wire_bytes_total", "counter", "Bytes that crossed the wire for every chunk workers reported fetching (epoch artifacts and initial states), in the at-rest form chunks travel in.")
		p.sample("orochi_fleet_wire_bytes_total", "", float64(st.WireBytes))
		p.family("orochi_fleet_snapshot_chunks_posted_total", "counter", "Candidate-snapshot chunks workers shipped and the chain store filed.")
		p.sample("orochi_fleet_snapshot_chunks_posted_total", "", float64(st.SnapshotChunksPosted))
		p.family("orochi_fleet_snapshot_chunks_reused_total", "counter", "Candidate-snapshot chunk refs in worker posts that named a chunk the chain store already held.")
		p.sample("orochi_fleet_snapshot_chunks_reused_total", "", float64(st.SnapshotChunksReused))
		p.family("orochi_fleet_cache_hit_bytes_total", "counter", "Manifest-pinned bytes workers served from their local caches instead of the wire.")
		p.sample("orochi_fleet_cache_hit_bytes_total", "", float64(st.CacheHitBytes))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// promWriter emits the exposition format: one # HELP / # TYPE pair per
// family, then its samples.
type promWriter struct{ b *bytes.Buffer }

func (p promWriter) family(name, typ, help string) {
	fmt.Fprintf(p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(p.b, "%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}
