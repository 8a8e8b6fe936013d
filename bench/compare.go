package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction: positive means b is worse.
func worsening(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults prints one row per (workload, end-to-end metric) that
// both sets have — A's value, B's value, B's worsening as a share of A,
// and the metric's bound — and returns how many rows worsen beyond
// their bound. This is the driver's rule for a regression, so a clean
// compare of parent against change means the driver will accept it.
func compareResults(w io.Writer, a, b []*runResult) int {
	bByName := make(map[string]*runResult)
	for _, r := range b {
		bByName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tB worse by (share of A)\tbound\t")
	beyond := 0
	for _, ra := range a {
		rb := bByName[ra.Workload]
		if rb == nil {
			continue
		}
		for _, def := range endToEnd {
			va, vb := ra.EndToEnd[def.Name], rb.EndToEnd[def.Name]
			worse := worsening(def, va, vb)
			mark := ""
			if worse > def.Bound {
				mark = "BEYOND BOUND"
				beyond++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%.0f%%\t%s\n",
				ra.Workload, def.Name, va, def.Unit, vb, def.Unit, 100*worse, 100*def.Bound, mark)
		}
	}
	tw.Flush()
	return beyond
}

func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return 0, err
	}
	return compareResults(w, a, b), nil
}

func readResults(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*runResult
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range rs {
		if r.Failed > 0 || r.EndToEnd == nil {
			return nil, fmt.Errorf("%s: workload %s failed its correctness gate; nothing to compare", path, r.Workload)
		}
	}
	return rs, nil
}
