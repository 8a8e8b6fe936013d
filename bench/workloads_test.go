package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"orochi/internal/workload"
)

// stream renders everything the program under test receives from a
// workload: the seed SQL and the request stream, in order.
func stream(t *testing.T, w *workload.Workload) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Seed     []string
		Requests any
	}{w.Seed, w.Requests})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestWorkloadsFollowTheSeed(t *testing.T) {
	for _, wl := range benchWorkloads {
		a, again, other := stream(t, wl.gen(7)), stream(t, wl.gen(7)), stream(t, wl.gen(8))
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 gave two different request streams", wl.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", wl.name)
		}
		// Every round must hold enough Handle calls to report a p99.
		if n := len(wl.gen(7).Requests); n < 1000 {
			t.Errorf("%s: %d requests per round, need >= 1000 for serve p99", wl.name, n)
		}
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json, which the driver
// reads, to the tables this program prints and compares by.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(benchWorkloads))
	}
	for i, wl := range benchWorkloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, spec.Workloads[i], wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", wl.name, len(wl.why))
		}
	}
}
