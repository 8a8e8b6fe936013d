// Command orochi-bench regenerates the tables and figures of the paper's
// evaluation (§5) and prints them as text. Each -fig target corresponds
// to one table/figure; -scale divides the paper-sized workloads for
// quicker runs (scale 1 = the paper's request counts).
//
//	orochi-bench -fig 8            Fig. 8 left table (speedup, overheads, sizes)
//	orochi-bench -fig 8lat         Fig. 8 right graph (latency vs throughput)
//	orochi-bench -fig 9            Fig. 9 audit-cost decomposition
//	orochi-bench -fig 10           Fig. 10 per-instruction costs
//	orochi-bench -fig 11           Fig. 11 group characteristics
//	orochi-bench -fig frontier     §3.5/§A.8 time-precedence algorithm
//	orochi-bench -fig workers      parallel audit: speedup vs sequential per worker count
//	orochi-bench -fig serve        serving throughput vs concurrency, global-ish lock vs sharded
//	orochi-bench -fig fleet        distributed audit: 1 vs N fleet workers, cold vs warm fetch
//	orochi-bench -fig all          everything
//
// -audit-workers sets the verifier's worker pool for the audit-running
// figures (0 = all CPUs); -fig workers sweeps worker counts in the
// style of `go test -cpu` and reports the speedup over one worker.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"orochi/internal/cas"
	"orochi/internal/core"
	"orochi/internal/epoch"
	"orochi/internal/fleet"
	"orochi/internal/harness"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// benchCtx is cancelled by SIGINT/SIGTERM: the audits behind the
// figures abandon their worker pools cleanly instead of leaving a
// half-printed table behind a hung Ctrl-C.
var benchCtx = context.Background()

// benchMaxGroup routes the -max-group flag into every audit a figure
// runs (0 = the verifier's default SIMD batch cap).
var benchMaxGroup int

func main() {
	var stop context.CancelFunc
	benchCtx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fig := flag.String("fig", "all", "which figure/table to regenerate (8, 8lat, 9, 10, 11, frontier, workers, serve, fleet, storage, all)")
	scale := flag.Int("scale", 10, "divide paper-sized workloads by this factor (1 = full size)")
	conc := flag.Int("concurrency", 8, "in-flight requests while serving")
	// The paper-shape figures default to the sequential audit so the
	// printed columns stay comparable to the paper's single-core
	// reference numbers (and Fig. 9's CPU decomposition adds up);
	// parallelism is measured by the dedicated -fig workers sweep.
	auditWorkers := flag.Int("audit-workers", 1, "verifier worker pool for the audit-running figures (1 = sequential/paper-faithful, 0 = all CPUs)")
	jsonOut := flag.String("json", "", "machine-readable mode: measure the headline numbers (Fig-8 audit cost per request, serve req/s, speedup, dedup ratio) and write them as JSON to this file ('-' = stdout), instead of printing figures")
	maxGroup := flag.Int("max-group", 0, "cap requests re-executed per SIMD batch in the audits behind the figures (0 = verifier default of 3000); lane-width experiments, verdicts identical at any setting")
	flag.Parse()
	benchMaxGroup = *maxGroup

	if *jsonOut != "" {
		benchJSON(*jsonOut, *scale, *conc, *auditWorkers)
		return
	}

	switch *fig {
	case "8":
		fig8(*scale, *conc, *auditWorkers)
	case "8lat":
		fig8lat(*scale, *conc)
	case "9":
		fig9(*scale, *conc, *auditWorkers)
	case "10":
		fig10()
	case "11":
		fig11(*scale, *conc, *auditWorkers)
	case "workers":
		figWorkers(*scale, *conc)
	case "serve":
		figServe(*scale)
	case "fleet":
		figFleet(*scale, *conc)
	case "storage":
		figStorage(*scale, *conc)
	case "all":
		fig8(*scale, *conc, *auditWorkers)
		fig9(*scale, *conc, *auditWorkers)
		fig10()
		fig11(*scale, *conc, *auditWorkers)
		figFrontier()
		figWorkers(*scale, *conc)
		figServe(*scale)
		figFleet(*scale, *conc)
		figStorage(*scale, *conc)
		fig8lat(*scale, *conc)
	case "frontier":
		figFrontier()
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *fig)
		os.Exit(2)
	}
}

// benchResult is one application's row of the -json output: the
// headline evaluation numbers in machine-readable form, so CI (and the
// committed BENCH_seed.json baseline) can diff runs without parsing the
// human tables.
type benchResult struct {
	App string `json:"app"`
	// Requests served (and audited) in the measured period.
	Requests int `json:"requests"`
	// ServeReqPerSec is recording-mode serving throughput.
	ServeReqPerSec float64 `json:"serve_req_per_sec"`
	// AuditNsPerReq is total audit time divided by requests (the Fig-8
	// audit-cost unit), and AuditSpeedup the baseline-replay time over
	// the deduplicated audit time (Fig-8's headline column).
	AuditNsPerReq int64   `json:"audit_ns_per_req"`
	AuditSpeedup  float64 `json:"audit_speedup"`
	// DedupRatio is requests replayed per re-executed group batch — the
	// same figure /-/metrics exposes as orochi_audit_dedup_ratio.
	DedupRatio float64 `json:"dedup_ratio"`
	// Storage compares the content-addressed epoch layout against the
	// whole-file (v1) layout for the same workload.
	Storage *storageResult `json:"storage,omitempty"`
}

// storageResult measures the sealed-epoch storage layer: the same
// workload is sealed twice — chunked (content-addressed) and
// whole-file (v1) — and the at-rest footprints and wall times compared.
type storageResult struct {
	// Epochs sealed in the measured chain.
	Epochs int `json:"epochs"`
	// LogicalBytes is what the manifests pin: the uncompressed
	// artifact bytes the chain vouches for.
	LogicalBytes int64 `json:"logical_bytes"`
	// StoredBytes/Chunks describe the chunk store at rest (per-chunk
	// gzip); WholeFileBytes is the v1 layout's at-rest footprint
	// (gzip-compressed whole artifacts) for the same workload.
	StoredBytes    int64 `json:"stored_bytes"`
	Chunks         int   `json:"chunks"`
	WholeFileBytes int64 `json:"whole_file_bytes"`
	// ChunkRefs counts the chunk references across all manifests and
	// ChunkUnique the distinct chunks they name (LogicalBytes and
	// UniqueBytes are their logical bytes); equal counts mean no chunk
	// is shared and every byte saved at rest is compression.
	ChunkRefs   int   `json:"chunk_refs"`
	ChunkUnique int   `json:"chunk_unique"`
	UniqueBytes int64 `json:"unique_bytes"`
	// DedupRatio is logical bytes per stored byte (chunk sharing plus
	// compression; the console's orochi_storage_dedup_ratio).
	// ChunkShareRatio isolates chunk-level sharing: referenced chunk
	// bytes across all manifests per unique chunk byte (1.0 = no chunk
	// appears twice).
	DedupRatio      float64 `json:"dedup_ratio"`
	ChunkShareRatio float64 `json:"chunk_share_ratio"`
	// SealOverhead and LoadOverhead are chunked wall time over
	// whole-file wall time for serve+seal and for loading every sealed
	// epoch back (1.0 = free).
	SealOverhead float64 `json:"seal_overhead"`
	LoadOverhead float64 `json:"load_overhead"`
}

// fleetResult is the -json "fleet" section: the distributed-audit
// stack (artifact server + coordinator + workers over loopback HTTP)
// measured against the same sealed chain at one worker and at a small
// fleet, plus the chunk-cache effect on wire bytes. Verdicts are the
// gate, not the measurement — every run must ACCEPT with the same
// ledger a single-process audit produces.
type fleetResult struct {
	// Epochs/Requests describe the sealed chain every run audits.
	Epochs   int `json:"epochs"`
	Requests int `json:"requests"`
	// Workers is the fleet width of the parallel run (capped at 4).
	Workers int `json:"workers"`
	// EpochsPerSec1/N are decided epochs per wall-second with one cold
	// worker vs Workers cold workers; Speedup is their ratio.
	EpochsPerSec1 float64 `json:"epochs_per_sec_1"`
	EpochsPerSecN float64 `json:"epochs_per_sec_n"`
	Speedup       float64 `json:"speedup"`
	// LogicalBytes is what the manifests pin; ColdFetchedBytes is the
	// logical size of what a cache-less worker pulled for the whole
	// chain and ColdWireBytes what that cost on the wire (chunks travel
	// in their at-rest gzip form; initial-state chunks included);
	// WarmFetchedBytes/WarmWireBytes are the same worker re-auditing a
	// fresh copy of the chain with its chunk cache kept (the dedup win).
	LogicalBytes     int64 `json:"logical_bytes"`
	ColdFetchedBytes int64 `json:"cold_fetched_bytes"`
	ColdWireBytes    int64 `json:"cold_wire_bytes"`
	WarmFetchedBytes int64 `json:"warm_fetched_bytes"`
	WarmWireBytes    int64 `json:"warm_wire_bytes"`
}

// benchOutput is the top-level -json document.
type benchOutput struct {
	Scale        int           `json:"scale"`
	Concurrency  int           `json:"concurrency"`
	AuditWorkers int           `json:"audit_workers"`
	Results      []benchResult `json:"results"`
	Fleet        *fleetResult  `json:"fleet,omitempty"`
}

// benchJSON measures each paper workload once (serve → baseline replay
// → deduplicated audit) and writes the results as JSON.
func benchJSON(path string, scale, conc, auditWorkers int) {
	out := benchOutput{Scale: scale, Concurrency: conc, AuditWorkers: auditWorkers}
	for _, item := range workloads(scale) {
		served, err := harness.Serve(item.w, harness.ServeConfig{Record: true, Concurrency: conc})
		check(err)
		baseAudit, err := harness.BaselineReplay(item.w, served)
		check(err)
		res, err := served.AuditContext(benchCtx, verifier.Options{Workers: auditWorkers, MaxGroup: benchMaxGroup})
		check(err)
		if !res.Accepted {
			fmt.Fprintf(os.Stderr, "%s: AUDIT REJECTED: %s\n", item.name, res.Reason)
			os.Exit(1)
		}
		dedup := 0.0
		if res.Stats.GroupBatches > 0 {
			dedup = float64(res.Stats.RequestsReplayed) / float64(res.Stats.GroupBatches)
		}
		out.Results = append(out.Results, benchResult{
			App:            item.name,
			Requests:       served.Requests,
			ServeReqPerSec: float64(served.Requests) / served.ServeWall.Seconds(),
			AuditNsPerReq:  res.Stats.Total.Nanoseconds() / int64(served.Requests),
			AuditSpeedup:   float64(baseAudit) / float64(res.Stats.Total),
			DedupRatio:     dedup,
			Storage:        storageBench(item.w, conc),
		})
	}
	out.Fleet = fleetBench(scale, conc)
	data, err := json.MarshalIndent(out, "", "  ")
	check(err)
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(path, data, 0o644)
	}
	check(err)
}

// storageBench seals the workload twice — chunked and whole-file —
// into multi-epoch chains and measures footprints and overheads.
func storageBench(w *workload.Workload, conc int) *storageResult {
	sealChain := func(mode epoch.StorageMode) (string, time.Duration) {
		dir, err := os.MkdirTemp("", "orochi-bench-storage-")
		check(err)
		prog := w.App.Compile()
		srv := server.New(prog, server.Options{Record: true})
		check(srv.Setup(w.App.Schema))
		check(srv.Setup(w.Seed))
		// ~4 epochs: each request is a request+response event pair, and
		// serving in four bursts gives the manager balanced cut points.
		events := len(w.Requests) / 2
		if events < 32 {
			events = 32
		}
		mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{
			EpochEvents: events, Storage: mode})
		check(err)
		start := time.Now()
		q := (len(w.Requests) + 3) / 4
		for i := 0; i < len(w.Requests); i += q {
			end := i + q
			if end > len(w.Requests) {
				end = len(w.Requests)
			}
			srv.ServeAll(w.Requests[i:end], conc)
		}
		check(mgr.Close())
		return dir, time.Since(start)
	}
	loadChain := func(dir string) time.Duration {
		sealed, err := epoch.ListSealed(dir)
		check(err)
		start := time.Now()
		for _, s := range sealed {
			_, err := epoch.Load(s)
			check(err)
		}
		return time.Since(start)
	}

	chunkedDir, chunkedSeal := sealChain(epoch.StorageChunked)
	defer os.RemoveAll(chunkedDir)
	wholeDir, wholeSeal := sealChain(epoch.StorageWholeFile)
	defer os.RemoveAll(wholeDir)
	chunkedLoad := loadChain(chunkedDir)
	wholeLoad := loadChain(wholeDir)

	res := &storageResult{
		SealOverhead: float64(chunkedSeal) / float64(wholeSeal),
		LoadOverhead: float64(chunkedLoad) / float64(wholeLoad),
	}
	sealed, err := epoch.ListSealed(chunkedDir)
	check(err)
	res.Epochs = len(sealed)
	cs := epoch.CountChunkSharing(sealed)
	res.ChunkRefs, res.ChunkUnique = cs.Refs, cs.Unique
	res.LogicalBytes, res.UniqueBytes = cs.RefBytes, cs.UniqueBytes
	if cs.UniqueBytes > 0 {
		res.ChunkShareRatio = float64(cs.RefBytes) / float64(cs.UniqueBytes)
	}
	store, err := epoch.OpenChainStore(chunkedDir)
	check(err)
	chunks, storedBytes, err := store.Stats()
	check(err)
	res.Chunks, res.StoredBytes = chunks, storedBytes
	if storedBytes > 0 {
		res.DedupRatio = float64(cs.RefBytes) / float64(storedBytes)
	}
	res.WholeFileBytes = dirFileBytes(wholeDir)
	return res
}

// figStorage prints the storage section as a table.
func figStorage(scale, conc int) {
	fmt.Println("== Sealed-epoch storage: content-addressed chunks vs whole files ==")
	fmt.Println("   logical = the table-encoded artifacts the manifests pin; refs = unique means")
	fmt.Println("   no chunk is shared, and logical/stored is compression alone")
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tepochs\tchunk refs\tunique\tlogical B\tunique B\tstored B\twhole-file B\tlogical/stored\tseal overhead\tload overhead")
	for _, item := range workloads(scale) {
		r := storageBench(item.w, conc)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2fx\t%.2fx\n",
			item.name, r.Epochs, r.ChunkRefs, r.ChunkUnique, r.LogicalBytes, r.UniqueBytes,
			r.StoredBytes, r.WholeFileBytes, r.DedupRatio, r.SealOverhead, r.LoadOverhead)
	}
	tw.Flush()
	fmt.Println()
}

// fleetBench seals a chunked chain once and audits it through the
// fleet stack (artifact server + coordinator + RunWorker over loopback
// HTTP) three times: a cold single worker (the sequential reference
// and the wire bytes a cache-less worker must pull), the same worker
// again with its chunk cache kept (the warm bytes), and a cold
// N-worker fleet (the parallel wall-clock). Each run gets its own copy
// of the chain because the coordinator writes decisions and the chain
// ledger into the directory it audits.
func fleetBench(scale, conc int) *fleetResult {
	w := workload.Wiki(workload.DefaultWikiParams().Scale(scale))
	prog := w.App.Compile()

	src, err := os.MkdirTemp("", "orochi-bench-fleet-")
	check(err)
	defer os.RemoveAll(src)
	srv := server.New(prog, server.Options{Record: true})
	check(srv.Setup(w.App.Schema))
	check(srv.Setup(w.Seed))
	// ~8 epochs: a request is a request+response event pair, and
	// serving in eight bursts gives the manager balanced cut points —
	// enough epochs that a small fleet has parallelism to find.
	events := len(w.Requests) / 4
	if events < 32 {
		events = 32
	}
	mgr, err := epoch.StartManager(src, srv, srv.Snapshot(), epoch.ManagerOptions{
		EpochEvents: events, Storage: epoch.StorageChunked})
	check(err)
	q := (len(w.Requests) + 7) / 8
	for i := 0; i < len(w.Requests); i += q {
		end := i + q
		if end > len(w.Requests) {
			end = len(w.Requests)
		}
		srv.ServeAll(w.Requests[i:end], conc)
	}
	check(mgr.Close())

	runFleet := func(workers int, hots []cas.Store) (time.Duration, []fleet.WorkerStats, []epoch.Verdict) {
		dir, err := os.MkdirTemp("", "orochi-bench-fleet-run-")
		check(err)
		defer os.RemoveAll(dir)
		check(os.CopyFS(dir, os.DirFS(src)))
		as, err := fleet.NewArtifactServer(dir)
		check(err)
		coord, err := fleet.NewCoordinator(dir, fleet.CoordinatorOptions{RetryMS: 10})
		check(err)
		mux := http.NewServeMux()
		mux.Handle(fleet.Prefix+"/", as.Handler())
		coordHandler := coord.Handler()
		mux.Handle("POST "+fleet.Prefix+"/lease", coordHandler)
		mux.Handle("POST "+fleet.Prefix+"/verdict", coordHandler)
		mux.Handle("GET "+fleet.Prefix+"/epoch/{n}/init", coordHandler)
		ts := httptest.NewServer(mux)

		stats := make([]fleet.WorkerStats, workers)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				st, err := fleet.RunWorker(benchCtx, prog, fleet.WorkerOptions{
					Coordinator: ts.URL,
					Name:        fmt.Sprintf("bench-w%d", i),
					Hot:         hots[i],
					InitPoll:    5 * time.Millisecond,
				})
				check(err)
				stats[i] = st
			}(i)
		}
		check(coord.Wait(benchCtx))
		wall := time.Since(start)
		wg.Wait()
		ts.Close()
		if !coord.ChainAccepted() {
			fmt.Fprintln(os.Stderr, "orochi-bench: fleet audit REJECTED")
			os.Exit(1)
		}
		verdicts := coord.Verdicts()
		check(coord.Close())
		return wall, stats, verdicts
	}

	coldCache := cas.NewMemory()
	wall1, statsCold, verdicts := runFleet(1, []cas.Store{coldCache})
	_, statsWarm, _ := runFleet(1, []cas.Store{coldCache})
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 2 {
		n = 2
	}
	hots := make([]cas.Store, n)
	for i := range hots {
		hots[i] = cas.NewMemory()
	}
	wallN, _, _ := runFleet(n, hots)

	var requests int
	for _, v := range verdicts {
		requests += v.Requests
	}
	return &fleetResult{
		Epochs:           len(verdicts),
		Requests:         requests,
		Workers:          n,
		EpochsPerSec1:    float64(len(verdicts)) / wall1.Seconds(),
		EpochsPerSecN:    float64(len(verdicts)) / wallN.Seconds(),
		Speedup:          wall1.Seconds() / wallN.Seconds(),
		LogicalBytes:     statsCold[0].LogicalBytes,
		ColdFetchedBytes: statsCold[0].FetchedBytes,
		ColdWireBytes:    statsCold[0].WireBytes,
		WarmFetchedBytes: statsWarm[0].FetchedBytes,
		WarmWireBytes:    statsWarm[0].WireBytes,
	}
}

// figFleet prints the fleet section as a table.
func figFleet(scale, conc int) {
	fmt.Printf("\n=== Distributed audit: fleet of workers over HTTP (scale 1/%d) ===\n", scale)
	fmt.Println("verdicts and ledger are identical at any worker count; the fleet buys")
	fmt.Println("wall-clock, and a worker's chunk cache keeps re-audits off the wire")
	r := fleetBench(scale, conc)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "epochs\trequests\tepochs/s (1 worker)\tepochs/s\tworkers\tspeedup\tcold fetch\tcold wire\twarm fetch\twarm wire\tlogical")
	fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.1f\t%d\t%.2fx\t%dKB\t%dKB\t%dKB\t%dKB\t%dKB\n",
		r.Epochs, r.Requests, r.EpochsPerSec1, r.EpochsPerSecN, r.Workers, r.Speedup,
		r.ColdFetchedBytes/1024, r.ColdWireBytes/1024, r.WarmFetchedBytes/1024, r.WarmWireBytes/1024, r.LogicalBytes/1024)
	tw.Flush()
}

// dirFileBytes sums the at-rest bytes of every artifact file under a
// whole-file chain directory (segments, reports, init; manifests too —
// both layouts carry those).
func dirFileBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	check(err)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		check(err)
		for _, f := range files {
			if fi, err := f.Info(); err == nil && !f.IsDir() {
				total += fi.Size()
			}
		}
	}
	return total
}

func workloads(scale int) []struct {
	name string
	w    *workload.Workload
} {
	return []struct {
		name string
		w    *workload.Workload
	}{
		{"MediaWiki", workload.Wiki(workload.DefaultWikiParams().Scale(scale))},
		{"phpBB", workload.Forum(workload.DefaultForumParams().Scale(scale))},
		{"HotCRP", workload.HotCRP(workload.DefaultHotCRPParams().Scale(scale))},
	}
}

// fig8 prints the Fig. 8 left table: audit speedup, server CPU overhead,
// report sizes, and DB overheads per application.
func fig8(scale, conc, auditWorkers int) {
	fmt.Printf("\n=== Figure 8 (left): OROCHI vs simple re-execution (scale 1/%d) ===\n", scale)
	fmt.Println("paper: speedup 10.9x/5.6x/6.2x; server ovhd 4.7%/8.6%/5.9%;")
	fmt.Println("       reports 1.7/0.3/0.4 KB/req; temp DB 1.0x/1.7x/1.5x; permanent 1x")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\treqs\taudit speedup\tserver CPU ovhd\treq avg\tbase rep/req\torochi rep/req\ttemp DB\tpermanent")
	for _, item := range workloads(scale) {
		// Server CPU overhead: compare per-request handler cost with and
		// without recording. Measured sequentially (concurrency 1) and
		// best-of-2 to keep scheduler noise out of a small difference.
		cpuBase := bestServeCPU(item.w, false, 2)
		cpuRec := bestServeCPU(item.w, true, 2)
		// Recording run under real concurrency: the audited execution.
		served, err := harness.Serve(item.w, harness.ServeConfig{Record: true, Concurrency: conc})
		check(err)
		// Baseline audit = sequential re-execution of the trace.
		baseAudit, err := harness.BaselineReplay(item.w, served)
		check(err)
		res, err := served.AuditContext(benchCtx, verifier.Options{Workers: auditWorkers, MaxGroup: benchMaxGroup})
		check(err)
		if !res.Accepted {
			fmt.Fprintf(os.Stderr, "%s: AUDIT REJECTED: %s\n", item.name, res.Reason)
			os.Exit(1)
		}
		sizes, err := served.Sizes()
		check(err)
		vdbBytes := res.FinalDB.SizeBytes()
		liveBytes := res.FinalDB.LiveSizeBytes()
		tempRatio := 1.0
		if liveBytes > 0 {
			tempRatio = float64(vdbBytes) / float64(liveBytes)
		}
		n := served.Requests
		fmt.Fprintf(tw, "%s\t%d\t%.1fx\t%.1f%%\t%.1fKB\t%.2fKB\t%.2fKB\t%.1fx\t1x\n",
			item.name, n,
			float64(baseAudit)/float64(res.Stats.Total),
			100*float64(cpuRec-cpuBase)/float64(cpuBase),
			float64(sizes.TraceBytes)/float64(n)/1024,
			float64(sizes.BaselineReportBytes)/float64(n)/1024,
			float64(sizes.ReportBytes)/float64(n)/1024,
			tempRatio)
	}
	tw.Flush()
}

// fig8lat prints the Fig. 8 right data: latency percentiles vs offered
// throughput for the phpBB workload, baseline vs OROCHI.
func fig8lat(scale, conc int) {
	fmt.Printf("\n=== Figure 8 (right): latency vs throughput, phpBB (scale 1/%d) ===\n", scale)
	fmt.Println("paper shape: OROCHI tracks the baseline with ~11-18% lower peak throughput")
	p := workload.DefaultForumParams().Scale(scale)
	if p.Requests > 4000 {
		p.Requests = 4000
	}
	w := workload.Forum(p)
	// Probe the server's peak rate to select offered loads.
	peak := probePeakRate(w, conc)
	rates := []float64{0.2 * peak, 0.4 * peak, 0.6 * peak, 0.8 * peak, 0.9 * peak}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\toffered req/s\tp50 ms\tp90 ms\tp99 ms\tachieved req/s")
	for _, record := range []bool{false, true} {
		label := "baseline"
		if record {
			label = "orochi"
		}
		for _, rate := range rates {
			p50, p90, p99, achieved := poissonRun(w, record, rate)
			fmt.Fprintf(tw, "%s\t%.0f\t%.2f\t%.2f\t%.2f\t%.0f\n", label, rate, p50, p90, p99, achieved)
		}
	}
	tw.Flush()
}

// bestServeCPU serves the workload sequentially `reps` times and returns
// the minimum summed handler time.
func bestServeCPU(w *workload.Workload, record bool, reps int) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		served, err := harness.Serve(w, harness.ServeConfig{Record: record, Concurrency: 1})
		check(err)
		if served.ServeCPU < best {
			best = served.ServeCPU
		}
	}
	return best
}

// probePeakRate measures closed-loop throughput as the rate anchor.
func probePeakRate(w *workload.Workload, conc int) float64 {
	served, err := harness.Serve(w, harness.ServeConfig{Record: false, Concurrency: conc})
	check(err)
	return float64(served.Requests) / served.ServeWall.Seconds()
}

// poissonRun offers requests at the given rate with Poisson arrivals and
// returns latency percentiles (ms) and achieved throughput.
func poissonRun(w *workload.Workload, record bool, rate float64) (p50, p90, p99, achieved float64) {
	srv := provision(w, record)
	rng := rand.New(rand.NewSource(42))
	n := len(w.Requests)
	if n > 2000 {
		n = 2000
	}
	lats := make([]time.Duration, n)
	done := make(chan int, n)
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			// Exponential inter-arrival times.
			gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			time.Sleep(gap)
			go func(i int) {
				t0 := time.Now()
				srv.Handle(w.Requests[i])
				lats[i] = time.Since(t0)
				done <- i
			}(i)
		}
	}()
	for i := 0; i < n; i++ {
		<-done
	}
	wall := time.Since(start)
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(q float64) float64 {
		idx := int(q * float64(len(sorted)-1))
		return float64(sorted[idx].Microseconds()) / 1000
	}
	return pct(0.50), pct(0.90), pct(0.99), float64(n) / wall.Seconds()
}

// provision builds a served-but-idle server carrying the workload's
// schema and seed state.
func provision(w *workload.Workload, record bool) interface {
	Handle(in trace.Input) (rid, body string)
} {
	served, err := harness.Serve(&workload.Workload{App: w.App, Seed: w.Seed},
		harness.ServeConfig{Record: record, Concurrency: 1})
	check(err)
	return served.Server
}

// fig9 prints the audit-cost decomposition.
func fig9(scale, conc, auditWorkers int) {
	fmt.Printf("\n=== Figure 9: decomposition of audit-time CPU costs (scale 1/%d) ===\n", scale)
	fmt.Println("paper shape: PHP re-execution dominates; ProcOpRep/DB-redo are small;")
	fmt.Println("             query dedup keeps 'DB query' far below baseline DB time")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tbaseline total\taudit total\tPHP\tDB query\tProcOpRep\tDB redo\tother\tdedup hit rate")
	for _, item := range workloads(scale) {
		served, err := harness.Serve(item.w, harness.ServeConfig{Record: true, Concurrency: conc})
		check(err)
		base, err := harness.BaselineReplay(item.w, served)
		check(err)
		res, err := served.AuditContext(benchCtx, verifier.Options{Workers: auditWorkers, MaxGroup: benchMaxGroup})
		check(err)
		if !res.Accepted {
			fmt.Fprintf(os.Stderr, "%s: AUDIT REJECTED: %s\n", item.name, res.Reason)
			os.Exit(1)
		}
		st := res.Stats
		hitRate := 0.0
		if st.DedupHits+st.DedupMisses > 0 {
			hitRate = float64(st.DedupHits) / float64(st.DedupHits+st.DedupMisses)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.0f%%\n",
			item.name, round(base), round(st.Total),
			round(st.ReExec-st.DBQuery), round(st.DBQuery),
			round(st.ProcOpRep), round(st.DBRedo), round(st.Other),
			100*hitRate)
	}
	tw.Flush()
}

// fig10 prints per-instruction costs: unmodified vs univalent vs the
// fixed/marginal decomposition of multivalent execution.
func fig10() {
	fmt.Println("\n=== Figure 10: instruction costs (normalized to unmodified) ===")
	fmt.Println("paper shape: multivalent fixed cost is high; marginal cost is around")
	fmt.Println("             the unmodified cost — so wins come from collapse, not SIMD")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "instruction\tunmodified ns\tunivalent\tmultival fixed\tmultival marginal")
	cats := []string{"Multiply", "Concat", "Isset", "Jump", "GetVal",
		"ArraySet", "Iteration", "Microtime", "Increment", "NewArray"}
	empty := emptyLoopProgram()
	for _, cat := range cats {
		// Compile once per category, outside every timed window: the four
		// measurements below reuse the same program.
		prog := instrProgram(cat)
		base := measureInstr(prog, empty, "plain", 1)
		uni := measureInstr(prog, empty, "simd-same", 4)
		c2 := measureInstr(prog, empty, "simd-diff", 2)
		c16 := measureInstr(prog, empty, "simd-diff", 16)
		marginal := (c16 - c2) / 14
		if marginal < 0 {
			marginal = 0 // measurement noise on lane-independent ops
		}
		fixed := c2 - 2*marginal
		if fixed < 0 {
			fixed = 0
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.2fx\t%.2fx\t%.2fx\n",
			cat, base, uni/base, fixed/base, marginal/base)
	}
	tw.Flush()
}

var fig10Bodies = map[string]string{
	"Multiply":  `$x = $m * 3;`,
	"Concat":    `$x = $m . "x";`,
	"Isset":     `$x = isset($m);`,
	"Jump":      `if ($u > 0) { $x = 1; }`,
	"GetVal":    `$x = $m;`,
	"ArraySet":  `$arr["k"] = $m;`,
	"Iteration": `foreach ($pair as $v) { $x = $v; }`,
	"Microtime": `$x = microtime();`,
	"Increment": `$m++;`,
	"NewArray":  `$x = [];`,
}

type instrBridge struct{ n int64 }

func (b *instrBridge) RegisterRead(string, int, string) (lang.Value, error) { return nil, nil }
func (b *instrBridge) RegisterWrite(string, int, string, lang.Value) error  { return nil }
func (b *instrBridge) KvGet(string, int, string) (lang.Value, error)        { return nil, nil }
func (b *instrBridge) KvSet(string, int, string, lang.Value) error          { return nil }
func (b *instrBridge) DBOp(string, int, []string) (lang.Value, error)       { return lang.NewArray(), nil }
func (b *instrBridge) NonDet(string, string, []lang.Value) (lang.Value, error) {
	b.n++
	return float64(b.n), nil
}

const instrIters = 20000

// instrProgram compiles the category's measurement loop (content-keyed
// cache: identical sources compile once per process).
func instrProgram(cat string) *lang.Program {
	src := fmt.Sprintf(`
$u = 7;
$m = intval($_GET["seed"]);
$arr = [];
$pair = [1, 2];
for ($i = 0; $i < %d; $i++) {
  %s
}
echo "done";`, instrIters, fig10Bodies[cat])
	return lang.MustCompileCached(map[string]string{"m": src})
}

// emptyLoopProgram compiles the empty-loop baseline shared by every
// category.
func emptyLoopProgram() *lang.Program {
	return lang.MustCompileCached(map[string]string{"m": fmt.Sprintf(`
$u = 7;
$m = intval($_GET["seed"]);
$arr = [];
$pair = [1, 2];
for ($i = 0; $i < %d; $i++) {
}
echo "done";`, instrIters)})
}

// measureInstr times one loop iteration of the precompiled category
// program (ns per logical instruction execution). Compilation happens in
// the callers, never inside the timed window.
func measureInstr(prog, empty *lang.Program, mode string, lanes int) float64 {
	const iters = instrIters
	rids := make([]string, lanes)
	ins := make([]lang.RequestInput, lanes)
	for i := range rids {
		rids[i] = fmt.Sprintf("r%d", i)
		seed := "5"
		if mode == "simd-diff" {
			seed = fmt.Sprint(i + 1)
		}
		ins[i] = lang.RequestInput{Get: map[string]string{"seed": seed}}
	}
	cfg := lang.Config{Script: "m", RIDs: rids, Inputs: ins}
	if mode == "plain" {
		cfg.Mode = lang.ModePlain
	} else {
		cfg.Mode = lang.ModeSIMD
		cfg.Bridge = &instrBridge{}
	}
	// Subtract the empty-loop baseline to isolate the body cost. One
	// untimed warm-up run per program keeps lazy lowering (the compiled
	// engine's first-run cost) out of the measurement.
	timeRun := func(p *lang.Program) float64 {
		if _, err := lang.Run(p, cfg); err != nil {
			check(err)
		}
		best := math.MaxFloat64
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := lang.Run(p, cfg); err != nil {
				check(err)
			}
			el := float64(time.Since(start).Nanoseconds())
			if el < best {
				best = el
			}
		}
		return best
	}
	full := timeRun(prog)
	base := timeRun(empty)
	per := (full - base) / iters
	if per < 0.1 {
		per = 0.1
	}
	return per
}

// fig11 prints the control-flow group triples for the wiki workload.
func fig11(scale, conc, auditWorkers int) {
	fmt.Printf("\n=== Figure 11: control-flow groups, MediaWiki workload (scale 1/%d) ===\n", scale)
	fmt.Println("paper shape: many groups with large n; alpha > 0.95 for all groups")
	w := workload.Wiki(workload.DefaultWikiParams().Scale(scale))
	served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: conc})
	check(err)
	res, err := served.AuditContext(benchCtx, verifier.Options{CollectStats: true, Workers: auditWorkers, MaxGroup: benchMaxGroup})
	check(err)
	if !res.Accepted {
		fmt.Fprintf(os.Stderr, "AUDIT REJECTED: %s\n", res.Reason)
		os.Exit(1)
	}
	groups := res.Stats.Groups
	sort.Slice(groups, func(i, j int) bool { return groups[i].N > groups[j].N })
	nBig := 0
	var alphaMin, alphaSum float64 = 1, 0
	for _, g := range groups {
		if g.N > 1 {
			nBig++
		}
		alphaSum += g.Alpha
		if g.Alpha < alphaMin {
			alphaMin = g.Alpha
		}
	}
	fmt.Printf("total groups: %d; groups with n>1: %d; mean alpha %.3f; min alpha %.3f\n",
		len(groups), nBig, alphaSum/float64(len(groups)), alphaMin)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "script\tn (requests)\tl (instructions)\talpha")
	for i, g := range groups {
		if i >= 20 {
			fmt.Fprintf(tw, "... %d more groups\t\t\t\n", len(groups)-20)
			break
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f\n", g.Script, g.N, g.Len, g.Alpha)
	}
	tw.Flush()
}

// figWorkers sweeps the verifier's worker pool in the style of `go test
// -cpu`: each workload is served once, then audited at 1, 2, 4, ...
// workers, reporting the audit time and the speedup over the sequential
// (one-worker) audit. The verdict must be identical at every width.
func figWorkers(scale, conc int) {
	max := runtime.GOMAXPROCS(0)
	fmt.Printf("\n=== Parallel audit: worker sweep 1..%d (scale 1/%d) ===\n", max, scale)
	fmt.Println("groups re-execute independently (§3.1, §4.7): audit time should")
	fmt.Println("shrink with workers while the verdict stays bit-identical")
	var widths []int
	for wN := 1; wN < max; wN *= 2 {
		widths = append(widths, wN)
	}
	widths = append(widths, max)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "app"
	for _, wN := range widths {
		header += fmt.Sprintf("\tw=%d", wN)
	}
	fmt.Fprintln(tw, header+"\tspeedup")
	for _, item := range workloads(scale) {
		served, err := harness.Serve(item.w, harness.ServeConfig{Record: true, Concurrency: conc})
		check(err)
		row := item.name
		var seq, best time.Duration
		for _, wN := range widths {
			// Best of 2 runs per width to keep scheduler noise out.
			var t time.Duration = math.MaxInt64
			for rep := 0; rep < 2; rep++ {
				res, err := served.AuditContext(benchCtx, verifier.Options{Workers: wN, MaxGroup: benchMaxGroup})
				check(err)
				if !res.Accepted {
					fmt.Fprintf(os.Stderr, "%s: AUDIT REJECTED at %d workers: %s\n", item.name, wN, res.Reason)
					os.Exit(1)
				}
				if res.Stats.Total < t {
					t = res.Stats.Total
				}
			}
			if wN == 1 {
				seq = t
			}
			if best == 0 || t < best {
				best = t
			}
			row += "\t" + round(t)
		}
		fmt.Fprintf(tw, "%s\t%.2fx\n", row, float64(seq)/float64(best))
	}
	tw.Flush()
}

// figServe sweeps serving concurrency for the recording executor,
// comparing one lock stripe (≈ the old global-mutex serving path) with
// the default sharded configuration. Each cell serves the workload once
// (best of 2) and reports requests/second; the sharded column should
// keep climbing with goroutine count where the single stripe flattens.
func figServe(scale int) {
	maxConc := runtime.GOMAXPROCS(0)
	fmt.Printf("\n=== Serving throughput vs concurrency: striped vs single-stripe (scale 1/%d) ===\n", scale)
	fmt.Println("per-object shard locks + lock-free executor stats: serving should scale")
	fmt.Println("with in-flight requests instead of serializing on global mutexes")
	var widths []int
	for c := 1; c < maxConc; c *= 2 {
		widths = append(widths, c)
	}
	widths = append(widths, maxConc)
	rate := func(w *workload.Workload, conc, shards int) float64 {
		best := 0.0
		for rep := 0; rep < 2; rep++ {
			served, err := harness.Serve(w, harness.ServeConfig{Record: true, Concurrency: conc, Shards: shards})
			check(err)
			if r := float64(served.Requests) / served.ServeWall.Seconds(); r > best {
				best = r
			}
		}
		return best
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tconcurrency\tshards=1 req/s\tsharded req/s\tspeedup")
	for _, item := range workloads(scale) {
		for _, conc := range widths {
			one := rate(item.w, conc, 1)
			many := rate(item.w, conc, 0)
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.2fx\n", item.name, conc, one, many, many/one)
		}
	}
	tw.Flush()
}

// figFrontier compares CreateTimePrecedenceGraph with the quadratic
// transitive-reduction baseline (§3.5, §A.8).
func figFrontier() {
	fmt.Println("\n=== §3.5: time-precedence graph construction (frontier vs prior work) ===")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "requests\tconcurrency P\tedges Z\tfrontier\tquadratic baseline")
	for _, x := range []int{1000, 5000} {
		for _, p := range []int{1, 8, 32} {
			tr := epochTrace(x, p)
			start := time.Now()
			g, err := core.CreateTimePrecedenceGraph(tr)
			check(err)
			fast := time.Since(start)
			quad := time.Duration(0)
			if x <= 1000 {
				start = time.Now()
				core.CreateTimePrecedenceGraphQuadratic(tr)
				quad = time.Since(start)
			}
			quadStr := "(skipped)"
			if quad > 0 {
				quadStr = round(quad)
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%s\n", x, p, g.EdgeCount, round(fast), quadStr)
		}
	}
	tw.Flush()
}

func epochTrace(nReq, lanes int) *trace.Trace {
	var evs []trace.Event
	var clock int64
	for e := 0; e < nReq/lanes; e++ {
		for p := 0; p < lanes; p++ {
			clock++
			evs = append(evs, trace.Event{Kind: trace.Request, RID: fmt.Sprintf("e%dp%d", e, p), Time: clock})
		}
		for p := 0; p < lanes; p++ {
			clock++
			evs = append(evs, trace.Event{Kind: trace.Response, RID: fmt.Sprintf("e%dp%d", e, p), Time: clock})
		}
	}
	return &trace.Trace{Events: evs}
}

func round(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func check(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "orochi-bench:", err)
	if errors.Is(err, verifier.ErrAuditCanceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
