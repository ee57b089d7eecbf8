// Package simnet is SpiderNet's deterministic discrete-event simulation
// runtime: a virtual clock with an event heap, and a message-passing network
// of peers implementing the p2p.Node interface. It replaces the paper's C++
// event-driven P2P overlay simulator.
package simnet

import (
	"slices"
	"time"

	"repro/internal/p2p"
)

// Sim is a discrete-event scheduler over a virtual clock. It is not safe for
// concurrent use: everything runs in the single simulation goroutine, which
// is what makes runs bit-for-bit reproducible.
//
// The event queue is a 4-ary min-heap of slots holding each event's key
// inline, so a sift compares without touching an event. A cancellable event
// (Schedule, After) knows its own slot, so cancellation removes it at once
// (no tombstones accumulate across a long soak) and Pending is the heap
// length. Fired and cancelled events return to a freelist for later Schedule
// calls, and the handle Schedule returns is the event plus its generation,
// so the steady-state Schedule→fire path allocates nothing.
type Sim struct {
	now    time.Duration
	events []slot
	seq    uint64
	free   []*event
}

// slot is one queued event under its key: the virtual time it is due, then
// the order it was scheduled in, a strict total order. seq's low bit marks
// an event a handle can cancel, the only kind whose idx the heap keeps.
type slot struct {
	at  time.Duration
	seq uint64
	e   *event
}

func (a slot) less(b slot) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

type event struct {
	sim *Sim
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
	idx  int    // heap slot of a cancellable event; -1 once popped (parked, fired or cancelled)
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
	e := s.enqueue(d, true)
	e.fn = fn
	return p2p.NewTimer(e, e.gen)
}

// ScheduleCall runs call(arg) after delay d of virtual time. It is the
// non-cancellable flavor of Schedule for high-volume event sources (message
// delivery): the caller supplies one long-lived call function and a
// per-event argument, so no closure is allocated. Ordering is shared with
// Schedule — one clock, one sequence counter, one heap.
func (s *Sim) ScheduleCall(d time.Duration, call func(any), arg any) {
	e := s.enqueue(d, false)
	e.call = call
	e.arg = arg
}

// enqueue takes an event off the freelist (or allocates one) and pushes it on
// the heap, due after d; cancellable says a handle to it will be returned.
// The caller fills in the payload.
func (s *Sim) enqueue(d time.Duration, cancellable bool) *event {
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{sim: s}
	}
	seq := s.seq << 1
	if cancellable {
		seq |= 1
	}
	s.seq++
	s.events = append(s.events, slot{s.now + max(d, 0), seq, e})
	s.up(len(s.events) - 1)
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
		e.sim.remove(e.idx)
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
	top := s.remove(0)
	e := top.e
	s.now = top.at
	if e.node != nil && !e.node.alive {
		e.idx = -1
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

// remove takes slot i off the heap, moving the last slot into its place,
// and returns it; its event's idx is the caller's to reset.
func (s *Sim) remove(i int) slot {
	h := s.events
	out, n := h[i], len(h)-1
	h[i], h[n] = h[n], slot{}
	s.events = h[:n]
	if i < n && !s.down(i) {
		s.up(i)
	}
	return out
}

// up sifts slot i toward the root.
func (s *Sim) up(i int) {
	h := s.events
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(h[p]) {
			break
		}
		s.place(i, h[p])
		i = p
	}
	s.place(i, x)
}

// down sifts slot i toward the leaves and reports whether it moved.
func (s *Sim) down(i int) bool {
	h := s.events
	x, at := h[i], i
	for {
		c := 4*at + 1
		if c >= len(h) {
			break
		}
		m, end := c, min(c+4, len(h))
		for j := c + 1; j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		s.place(at, h[m])
		at = m
	}
	s.place(at, x)
	return at != i
}

// place puts x in slot i, telling a cancellable event where it now is.
func (s *Sim) place(i int, x slot) {
	s.events[i] = x
	if x.seq&1 != 0 {
		x.e.idx = i
	}
}
