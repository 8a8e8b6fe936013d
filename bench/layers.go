package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"orochi/internal/cas"
	"orochi/internal/epoch"
	"orochi/internal/lang"
	"orochi/internal/reports"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// probeLayers measures the layers the pipeline's own spans cannot tell
// apart, each around a direct call into the layer's package: epoch
// load, reports encode/decode, the chunk store, the verifier's phases
// on an in-memory audit with one worker (so the phase times add up —
// DBQuery is summed across workers otherwise), and a sequential
// non-recording replay of the served trace. It runs after the round's
// end-to-end intervals have been timed.
func probeLayers(ctx context.Context, tr *tracer, parent int, w *workload.Workload, prog *lang.Program, chainDir string, sealed []*epoch.Sealed) (map[string]float64, error) {
	probe := tr.begin("bench.probe", "", parent)
	defer tr.end(probe)
	m := make(map[string]float64)
	requests := 0

	// epoch: load every sealed epoch back from the chain store.
	var loaded []*epoch.Loaded
	var loadTime time.Duration
	var logical, traceBytes, reportBytes int64
	for _, s := range sealed {
		sp := tr.begin("epoch.load", epochID(s), probe.idx)
		l, err := epoch.Load(s)
		loadTime += tr.end(sp)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, l)
		requests += s.Manifest.Requests
		logical += cas.BlobBytes(s.Manifest.ChunkRefs())
		for _, seg := range s.Manifest.Segments {
			traceBytes += seg.Bytes
		}
		reportBytes += s.Manifest.Reports.Bytes
	}
	m["epoch.load_s"] = loadTime.Seconds()
	m["epoch.epochs"] = float64(len(sealed))
	m["epoch.logical_bytes"] = float64(logical)
	m["trace.bytes_per_req"] = float64(traceBytes) / float64(requests)
	m["reports.bytes_per_req"] = float64(reportBytes) / float64(requests)

	// reports: the compressed wire form of each epoch's bundle.
	var encTime, decTime time.Duration
	for _, l := range loaded {
		sp := tr.begin("reports.encode", epochID(l.Sealed), probe.idx)
		data, err := l.Reports.Encode()
		encTime += tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("reports.decode", epochID(l.Sealed), probe.idx)
		_, err = reports.Decode(data)
		decTime += tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	m["reports.encode_s"] = encTime.Seconds()
	m["reports.decode_s"] = decTime.Seconds()

	// cas: read every artifact's logical blob out of the chain's store,
	// then cut and write it into a fresh on-disk store.
	chainStore, err := epoch.OpenChainStore(chainDir)
	if err != nil {
		return nil, err
	}
	fresh, err := cas.OpenFS(filepath.Join(filepath.Dir(chainDir), "cas-probe"))
	if err != nil {
		return nil, err
	}
	var readTime, writeTime time.Duration
	for _, s := range sealed {
		for _, refs := range artifactRefs(s.Manifest) {
			sp := tr.begin("cas.read", epochID(s), probe.idx)
			blob, err := cas.ReadBlob(chainStore, refs)
			readTime += tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("cas.write", epochID(s), probe.idx)
			_, err = cas.WriteBlob(fresh, cas.DefaultChunker, blob)
			writeTime += tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	chunks, stored, err := fresh.Stats()
	if err != nil {
		return nil, err
	}
	const mb = 1 << 20
	m["cas.read_mb_per_s"] = float64(logical) / mb / readTime.Seconds()
	m["cas.write_mb_per_s"] = float64(logical) / mb / writeTime.Seconds()
	m["cas.chunks"] = float64(chunks)
	m["cas.logical_per_stored"] = float64(logical) / float64(stored)

	// core, vstore, verifier: one in-memory audit per epoch, chained
	// through the verified final snapshots as the auditor does.
	var st verifier.Stats
	var snapTime time.Duration
	obs := &phaseObserver{tr: tr, phase: make(map[string]time.Duration)}
	init := loaded[0].Init
	for _, l := range loaded {
		sp := tr.begin("verifier.audit", epochID(l.Sealed), probe.idx)
		obs.parent, obs.id = sp.idx, epochID(l.Sealed)
		res, err := verifier.AuditContext(ctx, prog, l.Trace, l.Reports, init,
			verifier.Options{Workers: 1, CollectStats: true, Observer: obs})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if !res.Accepted {
			return nil, fmt.Errorf("in-memory audit of epoch %d rejected: %s", l.Number, res.Reason)
		}
		// The hand-off to the next epoch: the verified final state,
		// migrated out of the versioned database.
		sp = tr.begin("vstore.final_snapshot", epochID(l.Sealed), probe.idx)
		init, err = res.FinalSnapshot()
		snapTime += tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.DBQuery += res.Stats.DBQuery
		st.Other += res.Stats.Other
		st.Total += res.Stats.Total
		st.DedupHits += res.Stats.DedupHits
		st.DedupMisses += res.Stats.DedupMisses
		st.InstrUni += res.Stats.InstrUni
		st.InstrMulti += res.Stats.InstrMulti
	}
	m["core.process_op_reports_s"] = obs.phase[verifier.PhaseProcessOpReports].Seconds()
	m["vstore.redo_s"] = obs.phase[verifier.PhaseRedo].Seconds()
	m["vstore.query_s"] = st.DBQuery.Seconds()
	m["vstore.final_snapshot_s"] = snapTime.Seconds()
	m["vstore.dedup_hit_ratio"] = ratio(float64(st.DedupHits), float64(st.DedupHits+st.DedupMisses))
	m["verifier.reexec_s"] = obs.phase[verifier.PhaseReExec].Seconds()
	m["verifier.other_s"] = st.Other.Seconds()
	m["verifier.audit_s"] = st.Total.Seconds()
	m["verifier.group_batches"] = float64(obs.batches.Load())
	m["verifier.requests_per_batch"] = ratio(float64(obs.batchRequests.Load()), float64(obs.batches.Load()))
	m["verifier.instr_uni"] = float64(st.InstrUni)
	m["verifier.instr_multi"] = float64(st.InstrMulti)

	// lang: simple re-execution, the paper's baseline — every request
	// replayed in arrival order on a fresh non-recording server.
	srv := server.New(prog, server.Options{})
	if err := srv.Setup(w.App.Schema); err != nil {
		return nil, err
	}
	if err := srv.Setup(w.Seed); err != nil {
		return nil, err
	}
	sp := tr.begin("lang.replay", "", probe.idx)
	for _, l := range loaded {
		for _, ev := range l.Trace.Events {
			if ev.Kind == trace.Request {
				srv.Process(ev.RID, ev.In)
			}
		}
	}
	replay := tr.end(sp)
	m["lang.replay_us_per_req"] = float64(replay.Microseconds()) / float64(requests)
	m["verifier.audit_speedup"] = replay.Seconds() / st.Total.Seconds()
	return m, nil
}

// addPipelineLayers adds the per-layer metrics that come from the
// round's own spans and counters rather than from a probe.
func addPipelineLayers(r *round, fl *fleetRun, seedStmts int, seedTime, drain time.Duration) {
	m := r.layers
	var busy float64
	for _, us := range r.latencies {
		busy += us
	}
	m["server.requests"] = float64(r.requests)
	m["server.busy_s"] = busy / 1e6
	m["server.p50_us"], _ = percentile(r.latencies, 50)
	m["server.p99_us"], _ = percentile(r.latencies, 99)
	m["sqlmini.seed_stmts_per_s"] = float64(seedStmts) / seedTime.Seconds()
	m["epoch.seal_drain_s"] = drain.Seconds()

	for _, kind := range endpointKinds {
		if kind != "other" {
			m["fleet.bytes_"+kind] = float64(fl.transport.counts[kind].bytes.Load())
		}
	}
	calls, _, busyRT := fl.transport.totals()
	m["fleet.http_requests"] = float64(calls)
	m["fleet.roundtrip_busy_s"] = busyRT.Seconds()
	m["fleet.overhead_s"] = (r.fleet - r.audit).Seconds()
	m["fleet.epochs_abandoned"] = float64(fl.abandoned)
	m["fleet.wire_per_stored"] = float64(r.wireBytes) / float64(r.storedBytes)
}

// artifactRefs lists the chunk refs of each artifact a manifest pins:
// every segment, the reports bundle, and (epoch 1) the init snapshot.
func artifactRefs(m *epoch.Manifest) [][]cas.Ref {
	var out [][]cas.Ref
	for _, seg := range m.Segments {
		out = append(out, seg.Chunks)
	}
	out = append(out, m.Reports.Chunks)
	if m.Init != nil {
		out = append(out, m.Init.Chunks)
	}
	return out
}

func epochID(s *epoch.Sealed) string { return "e" + strconv.FormatInt(s.Number, 10) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phaseObserver turns the verifier's phase callbacks into spans under
// the current audit's span, stamped with the benchmark's clock, and
// counts re-executed batches. Phases of one audit never overlap, so a
// single open span suffices.
type phaseObserver struct {
	tr     *tracer
	parent int
	id     string
	cur    open
	phase  map[string]time.Duration

	batches, batchRequests atomic.Int64
}

func (o *phaseObserver) PhaseStart(phase string, units int) {
	o.cur = o.tr.begin(phaseSpanNames[phase], o.id, o.parent)
}

func (o *phaseObserver) PhaseEnd(phase string, took time.Duration) {
	o.phase[phase] += o.tr.end(o.cur)
}

func (o *phaseObserver) GroupReexecuted(script string, tag uint64, requests int) {
	o.batches.Add(1)
	o.batchRequests.Add(int64(requests))
}

func (o *phaseObserver) OpsReplayed(int)      {}
func (o *phaseObserver) Verdict(bool, string) {}

// phaseSpanNames names each verifier phase after the internal/ package
// that does its work.
var phaseSpanNames = map[string]string{
	verifier.PhaseProcessOpReports: "core.process_op_reports",
	verifier.PhaseRedo:             "vstore.redo",
	verifier.PhaseReExec:           "verifier.reexec",
	verifier.PhaseCoverage:         "verifier.coverage",
}
