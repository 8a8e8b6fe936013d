package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// or epoch share an ID; Parent is the index of the span that caused
// this one (-1 for a root). Times are nanoseconds since the tracer
// started.
type Span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times every interval the benchmark measures and, when on,
// also keeps each as a Span in memory until the run ends. The timing
// path is the same either way, so the traced run's end-to-end numbers
// differ from the untraced run's only by the cost of keeping spans.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// open is a started, not yet ended, interval.
type open struct {
	idx int // index into tracer.spans; -1 when tracing is off
	at  time.Time
}

// noParent marks a root span.
const noParent = -1

func (t *tracer) begin(name, id string, parent int) open {
	o := open{idx: -1, at: time.Now()}
	if t.on {
		t.mu.Lock()
		o.idx = len(t.spans)
		t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Start: int64(o.at.Sub(t.t0))})
		t.mu.Unlock()
	}
	return o
}

// end closes the interval and returns its duration.
func (t *tracer) end(o open) time.Duration {
	now := time.Now()
	if o.idx >= 0 {
		t.mu.Lock()
		t.spans[o.idx].End = int64(now.Sub(t.t0))
		t.mu.Unlock()
	}
	return now.Sub(o.at)
}

// layerTime is the per-name aggregate of a set of spans.
type layerTime struct {
	Name  string
	Count int
	Busy  time.Duration // sum of span durations
	Self  time.Duration // busy minus the part covered by child spans
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may overlap
// one another (two clients inside one serve span) and may stick out of
// the parent; the union of their intervals, clipped to the parent, is
// what is subtracted.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes aggregates spans by name, in first-seen order.
func layerTimes(spans []Span) []layerTime {
	self := selfTimes(spans)
	index := make(map[string]int)
	var out []layerTime
	for i, s := range spans {
		j, ok := index[s.Name]
		if !ok {
			j = len(out)
			index[s.Name] = j
			out = append(out, layerTime{Name: s.Name})
		}
		out[j].Count++
		out[j].Busy += time.Duration(s.End - s.Start)
		out[j].Self += time.Duration(self[i])
	}
	return out
}

func printLayerTimes(w io.Writer, spans []Span) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcount\tbusy_s\tself_s")
	for _, l := range layerTimes(spans) {
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\n", l.Name, l.Count, l.Busy.Seconds(), l.Self.Seconds())
	}
	tw.Flush()
}

func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
