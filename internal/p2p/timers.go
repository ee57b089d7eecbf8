package p2p

import "time"

// Timers is one owner's queue of fixed-delay timers, fired through one
// callback bound when the owner is built, so arming one allocates no closure.
// After arms host.After with the delay it is given, as a timer of its own
// would, so the runtime's timer stream is unchanged.
//
// Each entry must come due no earlier than the one queued before it, as a
// fixed delay guarantees. A firing hands the oldest live entry to the
// callback without comparing due times, so a runtime that fires near-equal
// timers out of order still fires every entry, in queue order. Like the
// owner's handlers, the queue runs on its node.
type Timers[T any] struct {
	host Node
	fn   func(T)
	fire func()          // q.fireOldest, bound once
	q    []timerEntry[T] // q[head] is live unless head == len(q)
	head int
	base uint64 // the sequence number of q[0]
}

// timerEntry is one queued timer, zeroed when it fires or is stopped so that
// it retains nothing: a zero t (a runtime's After never returns one) is dead.
type timerEntry[T any] struct {
	t Timer
	v T
}

// Init binds the queue to its node and callback, in the owner's constructor.
func (q *Timers[T]) Init(host Node, fn func(T)) { q.host, q.fn, q.fire = host, fn, q.fireOldest }

// After queues v to reach the callback after d. The returned Timer stops it.
func (q *Timers[T]) After(d time.Duration, v T) Timer {
	if len(q.q) == cap(q.q) && 2*q.head >= len(q.q) { // else append doubles it
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.base, q.head = q.q[:n], q.base+uint64(q.head), 0
	}
	q.q = append(q.q, timerEntry[T]{t: q.host.After(d, q.fire), v: v})
	return NewTimer(q, q.base+uint64(len(q.q)-1))
}

// Stop implements Stopper: it cancels entry seq's runtime timer and zeroes the
// entry. A fired entry is left alone: its runtime timer may fire a later one.
func (q *Timers[T]) Stop(seq uint64) {
	if seq >= q.base+uint64(q.head) {
		q.q[seq-q.base].t.Stop()
		q.q[seq-q.base] = timerEntry[T]{}
		q.trim()
	}
}

// fireOldest is every runtime timer's callback.
func (q *Timers[T]) fireOldest() {
	if q.head < len(q.q) {
		v := q.q[q.head].v
		q.q[q.head] = timerEntry[T]{}
		q.trim()
		q.fn(v)
	}
}

// trim moves the head past dead entries and empties the queue once none is
// live.
func (q *Timers[T]) trim() {
	for q.head < len(q.q) && q.q[q.head].t.s == nil {
		q.head++
	}
	if q.head == len(q.q) {
		q.q, q.base, q.head = q.q[:0], q.base+uint64(q.head), 0
	}
}
