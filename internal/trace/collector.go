package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Tap observes the live event stream and controls audit-period
// boundaries. Both methods are invoked while the collector's lock is
// held, so implementations see events in exact trace order and must not
// call back into the collector (or into anything that does).
//
// Event is invoked after every appended event; open is the number of
// requests whose response has not yet been recorded, and total is the
// number of events buffered in the current period (including ev). A
// true return asks the collector to end the period; the collector
// honours the request only at a balanced point (open == 0), because a
// period split mid-request would be unbalanced and unauditable (§4.7:
// "the server must be drained prior to an audit").
//
// Cut receives ownership of the finished period's events. After Cut
// returns, the collector's buffer is empty and its clock restarts at
// zero, while requestIDs remain globally unique across periods.
type Tap interface {
	Event(ev Event, open, total int) (cut bool)
	Cut(events []Event)
}

// Collector plays the role of the trusted middlebox at the network edge
// (§1, §4.1). It assigns logical timestamps and requestIDs and records an
// accurate, time-ordered trace of the requests entering and the responses
// leaving the executor. Collectors are safe for concurrent use; requests
// from many client goroutines interleave exactly as they would at a
// network tap.
type Collector struct {
	// nextID is atomic so rid allocation (and the fmt work to render it)
	// happens outside the collector's critical section; rids are unique
	// tokens, not trace-order evidence — ordering lives in the events.
	nextID atomic.Int64

	mu     sync.Mutex
	clock  int64
	open   int // requests awaiting their response
	events []Event
	// sizeHint is the previous period's event count; fresh period
	// buffers are preallocated to it so steady-state serving does not
	// repeatedly regrow the slice from zero.
	sizeHint int
	tap      Tap
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// SetTap installs (or, with nil, removes) the stream tap. The epoch
// pipeline uses it to cut epoch boundaries at balanced points and take
// each epoch's events for sealing.
func (c *Collector) SetTap(t Tap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tap = t
}

// append records ev and runs the tap, cutting the period if the tap
// requests it at a balanced point. The caller holds c.mu.
func (c *Collector) append(ev Event) {
	if c.events == nil && c.sizeHint > 0 {
		c.events = make([]Event, 0, c.sizeHint)
	}
	c.events = append(c.events, ev)
	if c.tap == nil {
		return
	}
	if c.tap.Event(ev, c.open, len(c.events)) && c.open == 0 {
		evs := c.events
		// Ownership of the buffer passes to the tap; start the next
		// period with a buffer sized like the one that just ended.
		c.sizeHint = len(evs)
		c.events = nil
		c.clock = 0
		c.tap.Cut(evs)
	}
}

// BeginRequest records the arrival of a request and returns the assigned
// requestID. The caller must later call EndRequest with the same rid.
// The input clone and the rid rendering run before the critical section,
// keeping per-event lock hold time minimal under high concurrency.
func (c *Collector) BeginRequest(in Input) string {
	cloned := in.Clone()
	rid := fmt.Sprintf("r%06d", c.nextID.Add(1))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	c.open++
	c.append(Event{Kind: Request, RID: rid, Time: c.clock, In: cloned})
	return rid
}

// BeginRequestWithID records the arrival of a request under a
// caller-chosen requestID. It is used by tests and by traces replayed
// from disk, where rids must be stable.
func (c *Collector) BeginRequestWithID(rid string, in Input) {
	cloned := in.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	c.open++
	c.append(Event{Kind: Request, RID: rid, Time: c.clock, In: cloned})
}

// EndRequest records the departure of the response for rid.
func (c *Collector) EndRequest(rid string, body string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if c.open > 0 {
		c.open--
	}
	c.append(Event{Kind: Response, RID: rid, Time: c.clock, Body: body})
}

// Trace returns a snapshot of the collected trace. The snapshot is
// independent of later collection.
func (c *Collector) Trace() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	evs := make([]Event, len(c.events))
	copy(evs, c.events)
	return &Trace{Events: evs}
}

// Reset discards all collected events and restarts the logical clock,
// starting a fresh audit period whose timestamps begin at 1 again.
// requestIDs stay monotonic across periods so rids remain globally
// unique over the lifetime of the collector.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The buffer was never handed out (Trace copies, Cut nils it), so
	// its capacity can be reused for the next period.
	c.events = c.events[:0]
	c.clock = 0
	c.open = 0
}
