package simnet

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/p2p"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order=%v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock=%v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	s.RunUntilIdle()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Fatalf("clock=%v, want 0", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := NewSim()
	fired := false
	timer := s.Schedule(time.Millisecond, func() { fired = true })
	timer.Stop()
	s.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
	timer.Stop() // double-cancel is a no-op
}

func TestRunHorizon(t *testing.T) {
	s := NewSim()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	s.Run(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired=%v", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock=%v", s.Now())
	}
	// Horizon with no events still advances the clock.
	s.Run(10 * time.Second)
	if s.Now() != 10*time.Second || len(fired) != 3 {
		t.Fatalf("clock=%v fired=%v", s.Now(), fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var times []time.Duration
	s.Schedule(time.Second, func() {
		times = append(times, s.Now())
		s.Schedule(time.Second, func() {
			times = append(times, s.Now())
		})
	})
	s.RunUntilIdle()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times=%v", times)
	}
}

func TestPending(t *testing.T) {
	s := NewSim()
	c1 := s.Schedule(time.Second, func() {})
	s.Schedule(time.Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending=%d", s.Pending())
	}
	c1.Stop()
	if s.Pending() != 1 {
		t.Fatalf("Pending after cancel=%d", s.Pending())
	}
	s.RunUntilIdle()
	if s.Pending() != 0 {
		t.Fatalf("Pending after run=%d", s.Pending())
	}
}

func TestStepReturnsFalseWhenIdle(t *testing.T) {
	s := NewSim()
	if s.Step() {
		t.Fatal("Step on empty sim should return false")
	}
	s.Schedule(0, func() {})
	if !s.Step() {
		t.Fatal("Step with one event should return true")
	}
	if s.Step() {
		t.Fatal("Step after draining should return false")
	}
}

// TestSameTimestampOrderDeterministic runs the same randomized schedule —
// many events piled onto few distinct timestamps, with nested re-scheduling —
// twice from the same seed and requires the dispatch sequences to match
// exactly. This is the property the whole trace-determinism story rests on:
// ties are broken by insertion order, never by heap internals.
func TestSameTimestampOrderDeterministic(t *testing.T) {
	dispatch := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			// Only 5 distinct timestamps => heavy tie-breaking.
			at := time.Duration(rng.Intn(5)) * time.Millisecond
			s.Schedule(at, func() {
				order = append(order, i)
				if i%7 == 0 {
					// Nested event at the current timestamp: must run
					// after everything already queued for this instant.
					s.Schedule(0, func() { order = append(order, 1000+i) })
				}
			})
		}
		s.RunUntilIdle()
		return order
	}
	a, b := dispatch(42), dispatch(42)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dispatch order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// lazyHeap is the reference implementation the indexed heap replaced:
// cancellation only flags the event, and flagged events are skipped when
// their timestamp pops. The property test below checks the indexed heap
// fires the exact same sequence under random schedule/cancel interleavings.
type lazyHeap struct {
	now    time.Duration
	events []*lazyEvent
	seq    uint64
}

type lazyEvent struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

func (l *lazyHeap) schedule(d time.Duration, fn func()) func() {
	if d < 0 {
		d = 0
	}
	e := &lazyEvent{at: l.now + d, seq: l.seq, fn: fn}
	l.seq++
	l.events = append(l.events, e)
	l.up(len(l.events) - 1)
	return func() { e.cancelled = true }
}

func (l *lazyHeap) less(i, j int) bool {
	if l.events[i].at != l.events[j].at {
		return l.events[i].at < l.events[j].at
	}
	return l.events[i].seq < l.events[j].seq
}

func (l *lazyHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !l.less(i, p) {
			break
		}
		l.events[i], l.events[p] = l.events[p], l.events[i]
		i = p
	}
}

func (l *lazyHeap) pop() *lazyEvent {
	e := l.events[0]
	n := len(l.events) - 1
	l.events[0] = l.events[n]
	l.events = l.events[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && l.less(c+1, c) {
			c++
		}
		if l.less(i, c) {
			break
		}
		l.events[i], l.events[c] = l.events[c], l.events[i]
		i = c
	}
	return e
}

func (l *lazyHeap) runUntilIdle() {
	for len(l.events) > 0 {
		e := l.pop()
		if e.cancelled {
			continue
		}
		l.now = e.at
		e.fn()
	}
}

// TestIndexedHeapMatchesLazyHeap drives both implementations through the
// same randomized schedule/cancel interleaving (including cancels issued
// from inside callbacks and nested scheduling) and requires identical firing
// sequences. This is the determinism contract of the rewrite: true removal
// on cancel must never change the (at, seq) dispatch order.
func TestIndexedHeapMatchesLazyHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		run := func(schedule func(time.Duration, func()) func(), drain func()) []int {
			script := rand.New(rand.NewSource(seed))
			rng := rand.New(rand.NewSource(seed + 1000))
			var order []int
			var cancels []func()
			var rec func(depth, id int) func()
			rec = func(depth, id int) func() {
				return func() {
					order = append(order, id)
					if depth < 2 && rng.Intn(3) == 0 {
						c := schedule(time.Duration(rng.Intn(4))*time.Millisecond, rec(depth+1, id+10000))
						cancels = append(cancels, c)
					}
					if len(cancels) > 0 && rng.Intn(3) == 0 {
						cancels[rng.Intn(len(cancels))]()
					}
				}
			}
			for i := 0; i < 300; i++ {
				c := schedule(time.Duration(script.Intn(10))*time.Millisecond, rec(0, i))
				cancels = append(cancels, c)
				if script.Intn(4) == 0 {
					cancels[script.Intn(len(cancels))]()
				}
			}
			drain()
			return order
		}
		s := NewSim()
		got := run(func(d time.Duration, fn func()) func() { return s.Schedule(d, fn).Stop }, s.RunUntilIdle)
		l := &lazyHeap{}
		want := run(l.schedule, l.runUntilIdle)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch diverges at %d: %d vs %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestStaleCancelAfterReuse holds a Timer across its event firing and a
// freelist reuse of the event struct: the stale handle must not stop the new
// incarnation.
func TestStaleCancelAfterReuse(t *testing.T) {
	s := NewSim()
	stale := s.Schedule(time.Millisecond, func() {})
	s.RunUntilIdle() // fires; the event struct goes to the freelist

	fired := false
	s.Schedule(time.Millisecond, func() { fired = true }) // reuses the struct
	stale.Stop()                                          // must be a no-op
	if s.Pending() != 1 {
		t.Fatalf("stale cancel removed a live event: Pending=%d", s.Pending())
	}
	s.RunUntilIdle()
	if !fired {
		t.Fatal("event reusing a recycled struct did not fire")
	}
}

// TestCancelRemovesImmediately verifies cancellation truly removes the event
// rather than leaving a tombstone: the queue length drops at cancel time.
func TestCancelRemovesImmediately(t *testing.T) {
	s := NewSim()
	var timers []p2p.Timer
	for i := 0; i < 100; i++ {
		timers = append(timers, s.Schedule(time.Hour, func() {}))
	}
	for i, c := range timers {
		c.Stop()
		if got, want := s.Pending(), 100-i-1; got != want {
			t.Fatalf("after %d cancels Pending=%d, want %d", i+1, got, want)
		}
	}
}

// TestScheduleFireAllocs pins the steady-state Schedule→fire allocation
// budget: with the freelist warm, one Schedule+Step cycle allocates nothing —
// the returned Timer is the pooled event and its generation.
func TestScheduleFireAllocs(t *testing.T) {
	s := NewSim()
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the freelist and the heap's backing array
		s.Schedule(0, fn)
	}
	s.RunUntilIdle()
	avg := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Microsecond, fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("Schedule→fire allocates %.2f objects/op, want 0", avg)
	}
}

// TestCancelDuringDispatch cancels a same-timestamp event from inside an
// earlier callback: the cancelled callback must never fire even though it
// was already in the heap when its timestamp arrived.
func TestCancelDuringDispatch(t *testing.T) {
	s := NewSim()
	fired := false
	var timer p2p.Timer
	s.Schedule(time.Millisecond, func() { timer.Stop() })
	timer = s.Schedule(time.Millisecond, func() { fired = true })
	s.RunUntilIdle()
	if fired {
		t.Fatal("event cancelled during dispatch of its own timestamp still fired")
	}

	// Cancelling from a callback scheduled earlier in *time* (not just
	// sequence) must also hold across Run horizons.
	s2 := NewSim()
	fired2 := false
	c2 := s2.Schedule(2*time.Millisecond, func() { fired2 = true })
	s2.Schedule(time.Millisecond, func() { c2.Stop() })
	s2.Run(5 * time.Millisecond)
	if fired2 {
		t.Fatal("event cancelled one tick earlier still fired")
	}
	if s2.Now() != 5*time.Millisecond {
		t.Fatalf("clock=%v, want 5ms", s2.Now())
	}
}
