// Command bench is the repository's gated benchmark (BENCHMARK.json):
// it drives the production pipeline — serve with recording and the
// epoch pipeline on, seal, audit the chain from disk, audit it again
// across a fleet over loopback HTTP — on one named workload generated
// from a seed, checks the outputs, and prints every metric by name.
// See README.md in this directory; run it through run.sh.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runResult is one run of one workload: the medians over its rounds.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Rounds    int                `json:"rounds"`
	Requests  int                `json:"requests_per_round"`
	Attempted int                `json:"attempted_ops"`
	Failed    int                `json:"failed_ops"`
	Reasons   []string           `json:"failure_reasons,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	// Info is printed but never gated: too noisy, or derived.
	Info map[string]float64 `json:"info,omitempty"`

	rounds []*round // the samples behind the medians, printed per round
}

func main() {
	workloadName := flag.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed (each generator's Params.Seed)")
	seconds := flag.Int("seconds", 28, "time budget of one run: rounds repeat until it is used")
	traced := flag.Int("trace", 0, "1 = traced run: keep spans, probe each layer, report per-layer metrics")
	out := flag.String("out", "", "also write the results as JSON to this file (input of -compare)")
	spansOut := flag.String("spans", "", "traced run: write the spans as JSON to this file")
	workdir := flag.String("workdir", ".bench_build", "directory for the chains a run seals (removed afterwards)")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.json B.json")
		}
		beyond, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if beyond > 0 {
			os.Exit(1)
		}
		return
	}

	var wls []*benchWorkload
	if *workloadName == "all" {
		for i := range benchWorkloads {
			wls = append(wls, &benchWorkloads[i])
		}
	} else if wl := findWorkload(*workloadName); wl != nil {
		wls = []*benchWorkload{wl}
	} else {
		fatal(2, "unknown workload %q (have %s)", *workloadName, workloadNames())
	}

	// Two cores at most, and as many clients, audit workers and fleet
	// workers: the numbers must mean the same on a bigger box.
	cores := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(cores)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stdout := bufio.NewWriter(os.Stdout)
	var results []*runResult
	exit := 0
	for _, wl := range wls {
		tr := newTracer(*traced == 1)
		dir := filepath.Join(*workdir, "run-"+strconv.Itoa(os.Getpid()))
		res, err := runWorkload(ctx, wl, *seed, time.Duration(*seconds)*time.Second, dir, cores, tr)
		os.RemoveAll(dir)
		if err != nil {
			stdout.Flush()
			fatal(2, "%s: %v", wl.name, err)
		}
		results = append(results, res)
		printResult(stdout, res, tr)
		if res.Failed > 0 {
			exit = 1
		}
		if tr.on && *spansOut != "" {
			if err := writeSpans(*spansOut, tr.spans); err != nil {
				fatal(2, "%v", err)
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(2, "%v", err)
		}
	}
	stdout.Flush()
	os.Exit(exit)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() string {
	names := make([]string, len(benchWorkloads))
	for i, wl := range benchWorkloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// runWorkload repeats rounds of wl until the time budget is used — it
// stops at the round count whose total is nearest the budget — and
// reduces them to medians. A round that fails the correctness gate
// ends the run at once: its result carries the failure counts and
// reasons and no metrics.
func runWorkload(ctx context.Context, wl *benchWorkload, seed int64, budget time.Duration, dir string, cores int, tr *tracer) (*runResult, error) {
	res := &runResult{Workload: wl.name, Seed: seed, Traced: tr.on}
	var rounds []*round
	start := time.Now()
	for {
		n := len(rounds)
		roundDir := filepath.Join(dir, "round-"+strconv.Itoa(n))
		r, err := runRound(ctx, wl, roundSeed(seed, n), roundDir, cores, tr, n == 0)
		os.RemoveAll(roundDir)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Reasons = append(res.Reasons, r.reasons...)
		if r.failed > 0 {
			res.Rounds = len(rounds)
			return res, nil
		}
		runtime.GC() // the next round starts from a collected heap, as the first did
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*len(rounds)) > budget {
			break
		}
	}
	res.Rounds, res.Requests, res.rounds = len(rounds), rounds[0].requests, rounds

	over := func(f func(*round) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	perSecond := func(d func(*round) time.Duration) float64 {
		return over(func(r *round) float64 { return float64(r.requests) / d(r).Seconds() })
	}
	res.EndToEnd = map[string]float64{
		"setup_s":                  over(func(r *round) float64 { return r.setup.Seconds() }),
		"serve_req_per_s":          perSecond(func(r *round) time.Duration { return r.serve }),
		"durable_req_per_s":        perSecond(func(r *round) time.Duration { return r.durable }),
		"audit_req_per_s":          perSecond(func(r *round) time.Duration { return r.audit }),
		"fleet_audit_req_per_s":    perSecond(func(r *round) time.Duration { return r.fleet }),
		"stored_bytes_per_req":     over(func(r *round) float64 { return float64(r.storedBytes) / float64(r.requests) }),
		"fleet_wire_bytes_per_req": over(func(r *round) float64 { return float64(r.wireBytes) / float64(r.requests) }),
	}
	latencyMS := func(p float64) float64 {
		return over(func(r *round) float64 { v, _ := percentile(r.latencies, p); return v / 1e3 })
	}
	res.Info = map[string]float64{"serve_p50_ms": latencyMS(50), "peak_rss_mb": peakRSSMB()}
	// A tail percentile is reported only from enough samples.
	if _, ok := percentile(rounds[0].latencies, 99); ok {
		res.Info["serve_p99_ms"] = latencyMS(99)
	}
	if tr.on {
		res.Layers = make(map[string]float64, len(perLayer))
		for _, def := range perLayer {
			res.Layers[def.Name] = over(func(r *round) float64 { return r.layers[def.Name] })
		}
	}
	return res, nil
}

// roundSeed gives each round of a run its own inputs, all fixed by the
// run's seed. How many bytes a request leaves behind follows the few
// writes in the mix (240 edits in 6000 wiki requests, 40 replies on
// forum-guest), so it moves by several percent from one seed to the
// next; the median over rounds with different inputs moves about half
// as much as any one of them.
func roundSeed(seed int64, round int) int64 { return seed*1000 + int64(round) }

// peakRSSMB reads the process's high-water resident set (VmHWM) from
// /proc; 0 where that is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// printResult prints the run for a reader and then, as the last line,
// the one JSON object the benchmark contract asks for: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printResult(w *bufio.Writer, res *runResult, tr *tracer) {
	fmt.Fprintf(w, "workload %s seed %d: %d rounds of %d requests, traced=%v\n",
		res.Workload, res.Seed, res.Rounds, res.Requests, res.Traced)
	for i, r := range res.rounds {
		fmt.Fprintf(w, "round %d: %d epochs, setup %.4fs serve %.4fs durable %.4fs audit %.4fs fleet %.4fs, stored %d B, wire %d B\n",
			i, r.epochs, r.setup.Seconds(), r.serve.Seconds(), r.durable.Seconds(), r.audit.Seconds(), r.fleet.Seconds(), r.storedBytes, r.wireBytes)
	}
	fmt.Fprintf(w, "attempted_ops %d\nfailed_ops %d\n", res.Attempted, res.Failed)
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]metricValue{}}

	if res.Failed > 0 {
		for _, reason := range res.Reasons {
			fmt.Fprintln(w, "FAILED:", reason)
		}
	} else {
		// The traced run prints its end-to-end numbers too, so that the
		// difference from an untraced run — the tracing overhead — shows.
		for _, def := range endToEnd {
			fmt.Fprintf(w, "%s %.6g %s (median of %d rounds)\n", def.Name, res.EndToEnd[def.Name], def.Unit, res.Rounds)
			if !res.Traced {
				line.Metrics[def.Name] = metricValue{res.EndToEnd[def.Name], def.Unit}
			}
		}
		for _, name := range []string{"serve_p50_ms", "serve_p99_ms", "peak_rss_mb"} {
			if v, ok := res.Info[name]; ok {
				fmt.Fprintf(w, "%s %.6g (not gated)\n", name, v)
			}
		}
		if res.Traced {
			for _, def := range perLayer {
				fmt.Fprintf(w, "%s %.6g %s\n", def.Name, res.Layers[def.Name], def.Unit)
				line.Metrics[def.Name] = metricValue{res.Layers[def.Name], def.Unit}
			}
			printLayerTimes(w, tr.spans)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(2, "%v", err)
	}
	fmt.Fprintf(w, "%s\n", data)
}
