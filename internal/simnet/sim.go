// Package simnet is SpiderNet's deterministic discrete-event simulation
// runtime: a virtual clock with an event heap, and a message-passing network
// of peers implementing the p2p.Node interface. It replaces the paper's C++
// event-driven P2P overlay simulator.
package simnet

import (
	"container/heap"
	"slices"
	"time"

	"repro/internal/p2p"
)

// Sim is a discrete-event scheduler over a virtual clock. It is not safe for
// concurrent use: everything runs in the single simulation goroutine, which
// is what makes runs bit-for-bit reproducible.
//
// The event queue is an index-tracked binary heap: every queued event knows
// its own heap slot, so cancellation removes the event immediately (no
// tombstones accumulate across a long soak) and Pending is the heap length.
// Fired and cancelled events return to a freelist and are reused by later
// Schedule calls, and the handle Schedule returns is the event plus its
// generation, so the steady-state Schedule→fire path allocates nothing.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	free   []*event
}

type event struct {
	sim *Sim
	at  time.Duration
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
	// call/arg is the allocation-free alternative to fn used by
	// ScheduleCall: a long-lived function value applied to a per-event
	// argument, so the hot send→deliver path creates no closure. Exactly
	// one of fn and call is set.
	call func(any)
	arg  any
	// node, when set, armed this event as a timer: one that comes due while
	// the node is down waits in node.parked until it recovers.
	node *simNode
	idx  int    // heap slot; -1 once popped (parked, fired or cancelled)
	gen  uint64 // incremented on recycle so stale handles are no-ops
}

// NewSim returns a simulator with the clock at zero and no pending events.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Pending returns the number of scheduled events. Cancelled events are
// removed from the queue at cancel time, so this is the live count, O(1).
func (s *Sim) Pending() int { return len(s.events) }

// Schedule runs fn after delay d of virtual time. Negative delays are
// clamped to zero. The returned Timer cancels the event if it has not yet
// fired.
func (s *Sim) Schedule(d time.Duration, fn func()) p2p.Timer {
	e := s.enqueue(d)
	e.fn = fn
	return p2p.NewTimer(e, e.gen)
}

// ScheduleCall runs call(arg) after delay d of virtual time. It is the
// non-cancellable flavor of Schedule for high-volume event sources (message
// delivery): the caller supplies one long-lived call function and a
// per-event argument, so no closure is allocated. Ordering is shared with
// Schedule — one clock, one sequence counter, one heap.
func (s *Sim) ScheduleCall(d time.Duration, call func(any), arg any) {
	e := s.enqueue(d)
	e.call = call
	e.arg = arg
}

// enqueue takes an event off the freelist (or allocates one), stamps it, and
// pushes it on the heap. The caller fills in the payload.
func (s *Sim) enqueue(d time.Duration) *event {
	if d < 0 {
		d = 0
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{sim: s}
	}
	e.at = s.now + d
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// Stop unqueues or unparks e if it is still incarnation gen, the one the
// handle was minted for. The generation check makes stale handles (held
// across the event firing and its struct being reused) harmless.
func (e *event) Stop(gen uint64) {
	if e.gen != gen {
		return
	}
	if e.idx >= 0 {
		heap.Remove(&e.sim.events, e.idx)
	} else {
		e.node.parked = slices.DeleteFunc(e.node.parked, func(p *event) bool { return p == e })
	}
	e.sim.recycle(e)
}

// recycle retires a fired or cancelled event onto the freelist.
func (s *Sim) recycle(e *event) {
	e.fn = nil
	e.call = nil
	e.arg = nil
	e.node = nil
	e.idx = -1
	e.gen++
	s.free = append(s.free, e)
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. A timer whose node is down is parked on the node instead, to
// fire when it recovers. It returns false if no events remain.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	if e.node != nil && !e.node.alive {
		e.node.parked = append(e.node.parked, e)
	} else {
		s.fire(e)
	}
	return true
}

// fire recycles a popped or parked event and runs its payload.
func (s *Sim) fire(e *event) {
	fn, call, arg := e.fn, e.call, e.arg
	s.recycle(e)
	if fn != nil {
		fn()
	} else {
		call(arg)
	}
}

// Run executes all events with timestamps <= until, then advances the clock
// to until.
func (s *Sim) Run(until time.Duration) {
	for len(s.events) > 0 && s.events[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntilIdle executes events until none remain. Protocols with periodic
// timers never go idle; use Run with a horizon for those.
func (s *Sim) RunUntilIdle() {
	for s.Step() {
	}
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x interface{}) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}
