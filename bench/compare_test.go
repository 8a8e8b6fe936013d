package main

import (
	"strings"
	"testing"
)

func resultWith(workload string, override map[string]float64) *runResult {
	r := &runResult{Workload: workload, EndToEnd: map[string]float64{}}
	for _, def := range endToEnd {
		r.EndToEnd[def.Name] = 100
	}
	for k, v := range override {
		r.EndToEnd[k] = v
	}
	return r
}

// worse returns a value of def's metric that is worse than 100 by the
// given share.
func worse(def metricDef, share float64) float64 {
	if def.Better == "higher" {
		return 100 * (1 - share)
	}
	return 100 * (1 + share)
}

func TestCompareBounds(t *testing.T) {
	base := []*runResult{resultWith("wiki-zipf", nil), resultWith("forum-churn", nil)}
	beyond := func(b *runResult) (int, string) {
		var out strings.Builder
		n := compareResults(&out, base, []*runResult{b})
		if marked := strings.Count(out.String(), "BEYOND BOUND"); marked != n {
			t.Errorf("%d rows marked, %d counted:\n%s", marked, n, out.String())
		}
		return n, out.String()
	}
	if n, out := beyond(resultWith("wiki-zipf", nil)); n != 0 {
		t.Errorf("identical results: %d rows beyond bound\n%s", n, out)
	}
	// Each metric on its own: just inside its bound passes, just
	// beyond it is marked, and any improvement passes.
	for _, def := range endToEnd {
		for _, c := range []struct {
			share float64
			want  int
		}{{0.9 * def.Bound, 0}, {1.1 * def.Bound, 1}, {-0.5, 0}} {
			b := resultWith("forum-churn", map[string]float64{def.Name: worse(def, c.share)})
			if n, out := beyond(b); n != c.want {
				t.Errorf("%s worse by %.3f (bound %.2f): %d rows beyond bound, want %d\n%s",
					def.Name, c.share, def.Bound, n, c.want, out)
			}
		}
	}
	two := resultWith("wiki-zipf", map[string]float64{"setup_s": 200, "durable_req_per_s": 50})
	if n, out := beyond(two); n != 2 {
		t.Errorf("two metrics far beyond: %d rows marked, want 2\n%s", n, out)
	}
	if n, out := beyond(resultWith("hotcrp-review", map[string]float64{"setup_s": 200})); n != 0 {
		t.Errorf("a workload only B has must be skipped: %d rows marked\n%s", n, out)
	}
}

func TestCompareRowPerWorkloadAndMetric(t *testing.T) {
	a := []*runResult{resultWith("wiki-zipf", nil), resultWith("forum-churn", nil)}
	var out strings.Builder
	compareResults(&out, a, a)
	if rows := strings.Count(out.String(), "\n") - 1; rows != 2*len(endToEnd) {
		t.Errorf("%d rows, want %d:\n%s", rows, 2*len(endToEnd), out.String())
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worsening(lower, 10, 12); got != 0.2 {
		t.Errorf("lower-is-better 10 -> 12 worsens by %v, want 0.2", got)
	}
	if got := worsening(higher, 10, 8); got != 0.2 {
		t.Errorf("higher-is-better 10 -> 8 worsens by %v, want 0.2", got)
	}
}
