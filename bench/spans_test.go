package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Parent: noParent, Start: 0, End: 100},   // 0
		{Name: "a", Parent: 0, Start: 10, End: 40},             // 1: nested child
		{Name: "a.inner", Parent: 1, Start: 15, End: 25},       // 2: grandchild, not root's
		{Name: "b", Parent: 0, Start: 30, End: 60},             // 3: overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120},            // 4: sticks out of root by 20
		{Name: "d", Parent: 0, Start: 35, End: 38},             // 5: wholly inside a and b
		{Name: "leaf", Parent: noParent, Start: 200, End: 230}, // 6: no children
	}
	// root: children cover [10,60) and [90,100) = 60 of 100.
	want := []int64{40, 20, 10, 30, 30, 3, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerTimes(t *testing.T) {
	spans := []Span{
		{Name: "serve", Parent: noParent, Start: 0, End: 100},
		{Name: "handle", Parent: 0, Start: 0, End: 50},
		{Name: "handle", Parent: 0, Start: 25, End: 75}, // a second client, overlapping the first
	}
	got := layerTimes(spans)
	want := []layerTime{
		{Name: "serve", Count: 1, Busy: 100, Self: 25},
		{Name: "handle", Count: 2, Busy: 100, Self: 100},
	}
	if len(got) != len(want) {
		t.Fatalf("layerTimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("layer %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTracerOffKeepsNoSpans(t *testing.T) {
	for _, on := range []bool{false, true} {
		tr := newTracer(on)
		outer := tr.begin("outer", "", noParent)
		inner := tr.begin("inner", "e1", outer.idx)
		time.Sleep(time.Millisecond)
		if d := tr.end(inner); d < time.Millisecond {
			t.Errorf("on=%v: inner lasted %v, want >= 1ms", on, d)
		}
		tr.end(outer)
		if !on {
			if len(tr.spans) != 0 {
				t.Errorf("tracer off kept %d spans", len(tr.spans))
			}
			continue
		}
		if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[1].ID != "e1" ||
			tr.spans[1].End <= tr.spans[1].Start || tr.spans[0].End < tr.spans[1].End {
			t.Errorf("tracer on recorded %+v", tr.spans)
		}
	}
}
