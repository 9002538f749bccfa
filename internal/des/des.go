// Package des is a small discrete-event simulation kernel: a virtual clock
// and a priority queue of timestamped events, plus the seeded RNG and
// substream derivation every simulation draws from. The event queue drives
// the simulations whose events are not known up front — the unicast
// baseline (internal/unicast) and the batching server (internal/batch) —
// so their results are deterministic and independent of wall time. The
// broadcast-scheme simulator (internal/sim) knows every flow edge in
// advance and replays them without a queue, using only the RNG; the live
// viewer stack uses the RNG for its jitter and arrival streams.
//
// Time is a float64 in minutes, matching the paper's unit of analysis.
// Events scheduled at equal times fire in scheduling order (a stable
// tiebreak by sequence number), which keeps simulations reproducible.
package des

import (
	"container/heap"
	"fmt"
)

// Event is a callback scheduled to run at a virtual time.
type Event func(now float64)

type item struct {
	t   float64
	seq uint64
	fn  Event
	// index within the heap, or -1 once popped/cancelled.
	index int
}

// Handle allows cancelling a scheduled event.
type Handle struct{ it *item }

// Cancelled reports whether the event was cancelled or already fired.
func (h Handle) Cancelled() bool { return h.it == nil || h.it.index < 0 }

type eventHeap []*item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	it := x.(*item)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*h = old[:n-1]
	return it
}

// Sim is one simulation instance. The zero value is ready to use. Sim is
// not safe for concurrent use: all events run on the caller's goroutine.
type Sim struct {
	now   float64
	seq   uint64
	queue eventHeap
	// Steps counts executed events, for runaway detection in tests.
	steps int64
}

// Now returns the current virtual time in minutes.
func (s *Sim) Now() float64 { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() int64 { return s.steps }

// At schedules fn to run at absolute time t, which must not be in the
// past. It returns a Handle for cancellation.
func (s *Sim) At(t float64, fn Event) Handle {
	if t < s.now {
		panic(fmt.Sprintf("des: At(%v) is before now (%v)", t, s.now))
	}
	if fn == nil {
		panic("des: At with nil event")
	}
	it := &item{t: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, it)
	return Handle{it: it}
}

// After schedules fn to run d minutes from now; d must be non-negative.
func (s *Sim) After(d float64, fn Event) Handle { return s.At(s.now+d, fn) }

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Sim) Cancel(h Handle) {
	if h.Cancelled() {
		return
	}
	heap.Remove(&s.queue, h.it.index)
	h.it.index = -1
	h.it.fn = nil
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }

// Step executes the next event, advancing the clock to its time. It
// reports false when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	it := heap.Pop(&s.queue).(*item)
	s.now = it.t
	s.steps++
	fn := it.fn
	it.fn = nil
	fn(s.now)
	return true
}

// Run executes events until the queue drains or the clock passes until
// (exclusive); events at later times remain queued and the clock stops at
// until. Pass math.Inf(1) to drain completely.
func (s *Sim) Run(until float64) {
	for len(s.queue) > 0 && s.queue[0].t <= until {
		s.Step()
	}
	if s.now < until && until < maxTime {
		s.now = until
	}
}

// RunAll executes events until the queue drains.
func (s *Sim) RunAll() {
	for s.Step() {
	}
}

const maxTime = 1e300
