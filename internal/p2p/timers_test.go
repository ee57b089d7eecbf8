package p2p_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
)

// queue returns a Timers on n that appends every value it fires to *fired.
func queue(n p2p.Node, fired *[]int) *p2p.Timers[int] {
	q := new(p2p.Timers[int])
	q.Init(n, func(v int) { *fired = append(*fired, v) })
	return q
}

// TestTimersFireInOrder: entries queued at one fixed delay at different
// instants fire at their own due times, in the order they were queued, and
// a fired entry retains nothing.
func TestTimersFireInOrder(t *testing.T) {
	sim, a, _, _ := newPair(t)
	var fired []int
	at := map[int]time.Duration{}
	q := new(p2p.Timers[int])
	q.Init(a, func(v int) { fired, at[v] = append(fired, v), sim.Now() })
	for i := 1; i <= 5; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, func() { q.After(10*time.Millisecond, i) })
	}
	sim.RunUntilIdle()
	if want := []int{1, 2, 3, 4, 5}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for v, when := range at {
		if want := time.Duration(v+10) * time.Millisecond; when != want {
			t.Errorf("entry %d fired at %v, want %v", v, when, want)
		}
	}
	if n := p2p.Retained(q); n != 0 {
		t.Fatalf("%d fired entries still hold their values", n)
	}
}

// TestTimersStop: stopping the head, a middle entry or the last one cancels
// exactly that entry, zeroes it at once, and leaves its neighbours to fire
// on time; a queue whose entries are all stopped arms nothing.
func TestTimersStop(t *testing.T) {
	for _, stop := range []int{1, 3, 5} {
		sim, a, _, _ := newPair(t)
		var fired []int
		q := queue(a, &fired)
		timers := map[int]p2p.Timer{}
		for i := 1; i <= 5; i++ {
			timers[i] = q.After(time.Duration(10+i)*time.Millisecond, i) // dues 11..15 ms
		}
		timers[stop].Stop()
		if n := p2p.Retained(q); n != 4 {
			t.Fatalf("stop %d: %d entries hold values after the Stop, want 4", stop, n)
		}
		sim.RunUntilIdle()
		want := slices.DeleteFunc([]int{1, 2, 3, 4, 5}, func(v int) bool { return v == stop })
		if !slices.Equal(fired, want) {
			t.Fatalf("stop %d: fired %v, want %v", stop, fired, want)
		}
	}

	sim, a, _, _ := newPair(t)
	var fired []int
	q := queue(a, &fired)
	for i := 1; i <= 3; i++ {
		q.After(time.Millisecond, i).Stop()
	}
	if sim.Pending() != 0 || p2p.Retained(q) != 0 {
		t.Fatalf("all entries stopped, yet %d timers pending and %d values held", sim.Pending(), p2p.Retained(q))
	}
}

// TestTimersStopAfterFiring: a handle kept past its entry's firing stops
// nothing, not the next entry's timer and not a later entry reusing its slot.
func TestTimersStopAfterFiring(t *testing.T) {
	sim, a, _, _ := newPair(t)
	var fired []int
	q := queue(a, &fired)
	first := q.After(time.Millisecond, 1)
	q.After(2*time.Millisecond, 2)
	sim.Run(sim.Now() + time.Millisecond)
	first.Stop()
	first.Stop()
	sim.RunUntilIdle()
	q.After(time.Millisecond, 3) // the queue emptied: entry 3 starts it again
	first.Stop()
	sim.RunUntilIdle()
	if want := []int{1, 2, 3}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v: a stale handle stopped a later entry", fired, want)
	}
}

// TestTimersRearmFromCallback: the callback may queue the next entry, as the
// recovery tick re-arms itself, and that entry fires on its own due time.
func TestTimersRearmFromCallback(t *testing.T) {
	sim, a, _, _ := newPair(t)
	var at []time.Duration
	q := new(p2p.Timers[int])
	q.Init(a, func(left int) {
		at = append(at, sim.Now())
		if left > 0 {
			q.After(2*time.Millisecond, left-1)
		}
	})
	q.After(2*time.Millisecond, 3)
	sim.RunUntilIdle()
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond, 8 * time.Millisecond}
	if !slices.Equal(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

// TestTimersParkedAcrossACrash: entries that come due while their node is
// down fire when it recovers, in the order they were queued, one stopped
// while it waits never does, and one due after the recovery fires on time.
func TestTimersParkedAcrossACrash(t *testing.T) {
	sim, a, _, nw := newPair(t)
	var fired []int
	at := map[int]time.Duration{}
	q := new(p2p.Timers[int])
	q.Init(a, func(v int) { fired, at[v] = append(fired, v), sim.Now() })
	var parked p2p.Timer
	for i := 1; i <= 4; i++ {
		tm := q.After(time.Duration(5*i)*time.Millisecond, i) // dues 5..20 ms
		if i == 2 {
			parked = tm
		}
	}
	q.After(40*time.Millisecond, 5)
	sim.Schedule(2*time.Millisecond, func() { nw.Fail(a.ID()) })
	sim.Schedule(18*time.Millisecond, func() { parked.Stop() })
	sim.Schedule(30*time.Millisecond, func() { nw.Recover(a.ID()) })
	sim.RunUntilIdle()
	if want := []int{1, 3, 4, 5}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for _, v := range []int{1, 3, 4} {
		if at[v] != 30*time.Millisecond {
			t.Errorf("entry %d fired at %v, want at the recovery (30ms)", v, at[v])
		}
	}
	if at[5] != 40*time.Millisecond {
		t.Errorf("entry 5 fired at %v, want on time (40ms)", at[5])
	}
}

// TestTimersOutOfOrderRuntime: a runtime whose timer callbacks reach the node
// in another order than their due times (the live runtime's callbacks race
// through goroutines of their own) still fires every entry, oldest first.
func TestTimersOutOfOrderRuntime(t *testing.T) {
	n := &manualNode{}
	var fired []int
	q := queue(n, &fired)
	q.After(time.Millisecond, 1)
	q.After(time.Millisecond, 2)
	q.After(time.Millisecond, 3)
	n.fire(1) // the second timer's callback arrives first
	n.fire(0)
	n.fire(2)
	if want := []int{1, 2, 3}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}

	// The first entry fired on the second timer's callback; a handle kept to
	// it stops nothing, so the first timer's late callback fires the second.
	fired = nil
	first := q.After(time.Millisecond, 4)
	q.After(time.Millisecond, 5)
	n.fire(4)
	first.Stop()
	n.fire(3)
	if want := []int{4, 5}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v: an entry was lost", fired, want)
	}
}

// TestTimersAllocs: arming an entry and firing it allocates nothing once the
// queue's slice and the simulator's freelist are warm; the one callback was
// bound when the queue was built.
func TestTimersAllocs(t *testing.T) {
	sim, a, _, _ := newPair(t)
	var fired []int
	q := queue(a, &fired)
	cycle := func() {
		q.After(time.Millisecond, 1)
		q.After(time.Millisecond, 2).Stop()
		sim.RunUntilIdle()
	}
	for range 4 {
		cycle()
	}
	fired = make([]int, 0, 1000)
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("arming, stopping and firing queue entries allocates %.2f objects, want 0", avg)
	}
}

// manualNode is a p2p.Node whose timers fire only when the test says so.
type manualNode struct {
	fns     []func()
	stopped []bool
}

func (n *manualNode) fire(i int) {
	if !n.stopped[i] {
		n.stopped[i] = true
		n.fns[i]()
	}
}

func (n *manualNode) Stop(gen uint64) { n.stopped[gen] = true }

func (n *manualNode) After(_ time.Duration, fn func()) p2p.Timer {
	n.fns, n.stopped = append(n.fns, fn), append(n.stopped, false)
	return p2p.NewTimer(n, uint64(len(n.fns)-1))
}

func (n *manualNode) ID() p2p.NodeID             { return 0 }
func (n *manualNode) Now() time.Duration         { return 0 }
func (n *manualNode) Send(p2p.Message)           {}
func (n *manualNode) Rand() *rand.Rand           { return nil }
func (n *manualNode) Handle(string, p2p.Handler) {}
