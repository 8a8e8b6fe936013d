package trace

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func req(rid string, t int64) Event {
	return Event{Kind: Request, RID: rid, Time: t, In: Input{Script: "s"}}
}
func resp(rid string, t int64) Event {
	return Event{Kind: Response, RID: rid, Time: t, Body: "b"}
}

func TestBalancedOK(t *testing.T) {
	tr := &Trace{Events: []Event{
		req("r1", 1), req("r2", 2), resp("r1", 3), resp("r2", 4),
	}}
	if err := tr.Balanced(); err != nil {
		t.Fatalf("expected balanced, got %v", err)
	}
}

func TestBalancedEmpty(t *testing.T) {
	tr := &Trace{}
	if err := tr.Balanced(); err != nil {
		t.Fatalf("empty trace should be balanced: %v", err)
	}
}

func TestBalancedMissingResponse(t *testing.T) {
	tr := &Trace{Events: []Event{req("r1", 1)}}
	if err := tr.Balanced(); err == nil {
		t.Fatal("expected error for request without response")
	}
}

func TestBalancedResponseBeforeRequest(t *testing.T) {
	tr := &Trace{Events: []Event{resp("r1", 1), req("r1", 2)}}
	if err := tr.Balanced(); err == nil {
		t.Fatal("expected error for response preceding request")
	}
}

func TestBalancedOrphanResponse(t *testing.T) {
	tr := &Trace{Events: []Event{req("r1", 1), resp("r1", 2), resp("r2", 3)}}
	if err := tr.Balanced(); err == nil {
		t.Fatal("expected error for response without request")
	}
}

func TestBalancedDuplicateRequest(t *testing.T) {
	tr := &Trace{Events: []Event{req("r1", 1), req("r1", 2), resp("r1", 3)}}
	if err := tr.Balanced(); err == nil {
		t.Fatal("expected error for duplicate requestID")
	}
}

func TestBalancedDuplicateResponse(t *testing.T) {
	tr := &Trace{Events: []Event{req("r1", 1), resp("r1", 2), resp("r1", 3)}}
	if err := tr.Balanced(); err == nil {
		t.Fatal("expected error for duplicate response")
	}
}

func TestBalancedOutOfOrderTime(t *testing.T) {
	tr := &Trace{Events: []Event{req("r1", 5), resp("r1", 3)}}
	if err := tr.Balanced(); err == nil {
		t.Fatal("expected error for decreasing timestamps")
	}
}

func TestBalancedEmptyRID(t *testing.T) {
	tr := &Trace{Events: []Event{req("", 1)}}
	if err := tr.Balanced(); err == nil {
		t.Fatal("expected error for empty requestID")
	}
}

func TestSortStable(t *testing.T) {
	tr := &Trace{Events: []Event{resp("r2", 4), req("r1", 1), resp("r1", 3), req("r2", 2)}}
	tr.Sort()
	if err := tr.Balanced(); err != nil {
		t.Fatalf("sorted trace should be balanced: %v", err)
	}
	want := []string{"r1", "r2", "r1", "r2"}
	for i, ev := range tr.Events {
		if ev.RID != want[i] {
			t.Fatalf("event %d: got rid %s want %s", i, ev.RID, want[i])
		}
	}
}

func TestSortTieBreak(t *testing.T) {
	// Same timestamp: request must sort before response.
	tr := &Trace{Events: []Event{resp("r1", 1), req("r1", 1)}}
	tr.Sort()
	if tr.Events[0].Kind != Request {
		t.Fatal("request should precede response at equal time")
	}
}

func TestPrecedesTr(t *testing.T) {
	// r1 fully precedes r2; r3 overlaps both.
	tr := &Trace{Events: []Event{
		req("r3", 1), req("r1", 2), resp("r1", 3), req("r2", 4), resp("r2", 5), resp("r3", 6),
	}}
	cases := []struct {
		a, b string
		want bool
	}{
		{"r1", "r2", true},
		{"r2", "r1", false},
		{"r1", "r3", false},
		{"r3", "r1", false},
		{"r3", "r2", false},
		{"r2", "r3", false},
		{"r1", "r1", false},
	}
	for _, c := range cases {
		if got := tr.PrecedesTr(c.a, c.b); got != c.want {
			t.Errorf("PrecedesTr(%s,%s)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAccessors(t *testing.T) {
	in := Input{Script: "view", Get: map[string]string{"p": "1"}}
	tr := &Trace{Events: []Event{
		{Kind: Request, RID: "r1", Time: 1, In: in},
		{Kind: Response, RID: "r1", Time: 2, Body: "hello"},
	}}
	if got, ok := tr.ResponseOf("r1"); !ok || got != "hello" {
		t.Fatalf("ResponseOf = %q,%v", got, ok)
	}
	if _, ok := tr.ResponseOf("rX"); ok {
		t.Fatal("ResponseOf should miss unknown rid")
	}
	if got, ok := tr.InputOf("r1"); !ok || got.Script != "view" || got.Get["p"] != "1" {
		t.Fatalf("InputOf = %+v,%v", got, ok)
	}
	if _, ok := tr.InputOf("rX"); ok {
		t.Fatal("InputOf should miss unknown rid")
	}
	if n := tr.RequestCount(); n != 1 {
		t.Fatalf("RequestCount = %d", n)
	}
	if rs := tr.Requests(); len(rs) != 1 || rs[0].RID != "r1" {
		t.Fatalf("Requests = %+v", rs)
	}
	if m := tr.Responses(); m["r1"] != "hello" {
		t.Fatalf("Responses = %v", m)
	}
	if m := tr.Inputs(); m["r1"].Script != "view" {
		t.Fatalf("Inputs = %v", m)
	}
}

func TestInputClone(t *testing.T) {
	in := Input{Script: "s", Get: map[string]string{"a": "1"}, Post: map[string]string{"b": "2"}, Cookie: map[string]string{"c": "3"}}
	cl := in.Clone()
	cl.Get["a"] = "mutated"
	cl.Post["b"] = "mutated"
	cl.Cookie["c"] = "mutated"
	if in.Get["a"] != "1" || in.Post["b"] != "2" || in.Cookie["c"] != "3" {
		t.Fatal("Clone must deep-copy maps")
	}
	var empty Input
	cl2 := empty.Clone()
	if cl2.Get != nil || cl2.Post != nil || cl2.Cookie != nil {
		t.Fatal("Clone of empty input should keep nil maps")
	}
}

func TestCollectorSequential(t *testing.T) {
	c := NewCollector()
	rid1 := c.BeginRequest(Input{Script: "a"})
	c.EndRequest(rid1, "out1")
	rid2 := c.BeginRequest(Input{Script: "b"})
	c.EndRequest(rid2, "out2")
	tr := c.Trace()
	if err := tr.Balanced(); err != nil {
		t.Fatalf("collector trace not balanced: %v", err)
	}
	if !tr.PrecedesTr(rid1, rid2) {
		t.Fatal("sequential requests should be ordered by <Tr")
	}
	if b, _ := tr.ResponseOf(rid2); b != "out2" {
		t.Fatalf("lost response body: %q", b)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rid := c.BeginRequest(Input{Script: "s", Get: map[string]string{"i": fmt.Sprint(i)}})
			c.EndRequest(rid, fmt.Sprintf("out%d", i))
		}(i)
	}
	wg.Wait()
	tr := c.Trace()
	if err := tr.Balanced(); err != nil {
		t.Fatalf("concurrent trace not balanced: %v", err)
	}
	if tr.RequestCount() != n {
		t.Fatalf("RequestCount = %d want %d", tr.RequestCount(), n)
	}
	// RIDs must be unique (Balanced checks this too, but be explicit).
	seen := map[string]bool{}
	for _, ev := range tr.Requests() {
		if seen[ev.RID] {
			t.Fatalf("duplicate rid %s", ev.RID)
		}
		seen[ev.RID] = true
	}
}

func TestCollectorSnapshotIsolation(t *testing.T) {
	c := NewCollector()
	rid := c.BeginRequest(Input{Script: "s"})
	c.EndRequest(rid, "x")
	tr := c.Trace()
	got := len(tr.Events)
	rid2 := c.BeginRequest(Input{Script: "s"})
	c.EndRequest(rid2, "y")
	if len(tr.Events) != got {
		t.Fatal("snapshot must not observe later events")
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	rid := c.BeginRequest(Input{Script: "s"})
	c.EndRequest(rid, "x")
	c.Reset()
	if c.Trace().Len() != 0 {
		t.Fatal("Reset should clear events")
	}
}

func TestCollectorWithID(t *testing.T) {
	c := NewCollector()
	c.BeginRequestWithID("custom-1", Input{Script: "s"})
	c.EndRequest("custom-1", "x")
	tr := c.Trace()
	if err := tr.Balanced(); err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].RID != "custom-1" {
		t.Fatalf("rid = %s", tr.Events[0].RID)
	}
}

// TestPrecedesRandom cross-checks PrecedesTr's scan against timestamps on
// randomly generated balanced traces.
func TestPrecedesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		tr := randomBalancedTrace(rng, 12)
		reqT := map[string]int64{}
		respT := map[string]int64{}
		var rids []string
		for _, ev := range tr.Events {
			if ev.Kind == Request {
				reqT[ev.RID] = ev.Time
				rids = append(rids, ev.RID)
			} else {
				respT[ev.RID] = ev.Time
			}
		}
		for _, a := range rids {
			for _, b := range rids {
				if a == b {
					continue
				}
				want := respT[a] < reqT[b]
				if got := tr.PrecedesTr(a, b); got != want {
					t.Fatalf("iter %d: PrecedesTr(%s,%s)=%v want %v", iter, a, b, got, want)
				}
			}
		}
	}
}

// randomBalancedTrace builds a balanced trace of n requests with random
// overlap structure and strictly increasing timestamps.
func randomBalancedTrace(rng *rand.Rand, n int) *Trace {
	type pending struct{ rid string }
	var evs []Event
	var open []pending
	var clock int64
	issued := 0
	for issued < n || len(open) > 0 {
		clock++
		canOpen := issued < n
		canClose := len(open) > 0
		if canOpen && (!canClose || rng.Intn(2) == 0) {
			rid := fmt.Sprintf("r%03d", issued)
			issued++
			evs = append(evs, Event{Kind: Request, RID: rid, Time: clock, In: Input{Script: "s"}})
			open = append(open, pending{rid})
		} else {
			i := rng.Intn(len(open))
			evs = append(evs, Event{Kind: Response, RID: open[i].rid, Time: clock, Body: "b"})
			open = append(open[:i], open[i+1:]...)
		}
	}
	return &Trace{Events: evs}
}

func TestCollectorResetRestartsClockKeepsRIDs(t *testing.T) {
	c := NewCollector()
	rid1 := c.BeginRequest(Input{Script: "s"})
	c.EndRequest(rid1, "x")
	c.Reset()
	rid2 := c.BeginRequest(Input{Script: "s"})
	c.EndRequest(rid2, "y")
	tr := c.Trace()
	if tr.Events[0].Time != 1 || tr.Events[1].Time != 2 {
		t.Fatalf("timestamps after Reset must restart at 1: got %d, %d",
			tr.Events[0].Time, tr.Events[1].Time)
	}
	if rid1 == rid2 {
		t.Fatalf("rids must stay unique across periods, got %s twice", rid1)
	}
}

// tapRecorder cuts whenever the event count reaches limit at a balanced
// point, collecting each finished period.
type tapRecorder struct {
	limit   int
	periods [][]Event
	seen    int
}

func (tp *tapRecorder) Event(ev Event, open, total int) bool {
	tp.seen++
	return total >= tp.limit
}

func (tp *tapRecorder) Cut(events []Event) { tp.periods = append(tp.periods, events) }

func TestCollectorTapCutsAtBalancedPoints(t *testing.T) {
	c := NewCollector()
	tp := &tapRecorder{limit: 4}
	c.SetTap(tp)
	// Two overlapping requests: the threshold (4 events) is reached at
	// r1's response while r2 is still open, so the cut must wait for
	// the balanced point at r2's response.
	r1 := c.BeginRequest(Input{Script: "a"})
	r2 := c.BeginRequest(Input{Script: "b"})
	c.EndRequest(r1, "x") // 3 events, open=1: no cut
	c.EndRequest(r2, "y") // 4 events, open=0: cut here
	r3 := c.BeginRequest(Input{Script: "c"})
	c.EndRequest(r3, "z")
	if len(tp.periods) != 1 {
		t.Fatalf("got %d cuts, want 1", len(tp.periods))
	}
	if n := len(tp.periods[0]); n != 4 {
		t.Fatalf("cut period holds %d events, want 4", n)
	}
	if err := (&Trace{Events: tp.periods[0]}).Balanced(); err != nil {
		t.Fatalf("cut period unbalanced: %v", err)
	}
	tr := c.Trace()
	if tr.Len() != 2 {
		t.Fatalf("collector holds %d events after cut, want 2", tr.Len())
	}
	if tr.Events[0].Time != 1 {
		t.Fatalf("post-cut timestamps must restart at 1, got %d", tr.Events[0].Time)
	}
	if tp.seen != 6 {
		t.Fatalf("tap observed %d events, want 6", tp.seen)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Kind: Request, RID: "r1", Time: 1, In: Input{Script: "s"}},
		{Kind: Response, RID: "r1", Time: 2, Body: "x"},
	}}
	data, err := tr.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRaw(data[:len(data)-1]); err == nil {
		t.Fatal("DecodeRaw accepted truncated input")
	}
	if _, err := DecodeRaw(data[:len(data)/2]); err == nil {
		t.Fatal("DecodeRaw accepted half the encoding")
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Kind: Request, RID: "r1", Time: 1, In: Input{Script: "s"}},
		{Kind: Response, RID: "r1", Time: 2, Body: "x"},
	}}
	data, err := tr.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRaw(append(data, 0xDE, 0xAD)); err == nil {
		t.Fatal("DecodeRaw accepted trailing garbage")
	}
	// The clean encoding still round-trips.
	got, err := DecodeRaw(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip lost events: %d", got.Len())
	}
}
