package p2p_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/simnet"
)

// newPair builds a two-node simulated network for contract exercises.
func newPair(t *testing.T) (*simnet.Sim, p2p.Node, p2p.Node, *simnet.Network) {
	t.Helper()
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(10*time.Millisecond), rand.New(rand.NewSource(1)))
	a := nw.AddNode(0)
	b := nw.AddNode(1)
	return sim, a, b, nw
}

func TestNoNodeIsInvalid(t *testing.T) {
	if p2p.NoNode >= 0 {
		t.Fatalf("NoNode = %d, must not collide with the dense non-negative ID space", p2p.NoNode)
	}
}

// TestSendFillsFromAndDelivers pins the Node.Send contract: the runtime
// stamps the sender's ID into From, delivery is asynchronous, and the
// payload arrives intact at the registered handler.
func TestSendFillsFromAndDelivers(t *testing.T) {
	sim, a, b, _ := newPair(t)
	var got []p2p.Message
	b.Handle("test.ping", func(n p2p.Node, msg p2p.Message) {
		if n.ID() != b.ID() {
			t.Errorf("handler node = %d, want %d", n.ID(), b.ID())
		}
		got = append(got, msg)
	})
	a.Send(p2p.Message{Type: "test.ping", To: b.ID(), Payload: "hello", UID: 42})
	if len(got) != 0 {
		t.Fatalf("delivery was synchronous; Send must only enqueue")
	}
	sim.RunUntilIdle()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	m := got[0]
	if m.From != a.ID() {
		t.Errorf("From = %d, want sender %d", m.From, a.ID())
	}
	if m.Payload != "hello" || m.UID != 42 {
		t.Errorf("payload/UID corrupted in flight: %+v", m)
	}
}

// TestHandleReplacesRegistration pins "replacing any previous registration".
func TestHandleReplacesRegistration(t *testing.T) {
	sim, a, b, _ := newPair(t)
	var first, second int
	b.Handle("test.m", func(p2p.Node, p2p.Message) { first++ })
	b.Handle("test.m", func(p2p.Node, p2p.Message) { second++ })
	a.Send(p2p.Message{Type: "test.m", To: b.ID()})
	sim.RunUntilIdle()
	if first != 0 || second != 1 {
		t.Fatalf("old handler ran %d times, new %d; want 0 and 1", first, second)
	}
}

// TestAfterOrderingAndCancel pins the timer contract: timers fire on the
// node's clock in order; Stop cancels an unfired timer and is a harmless
// no-op on the zero Timer, a second time, after the timer fired, and on a
// handle whose record a later timer reuses; a crash pauses the node's
// timers: those that come due while it is down fire once when it recovers,
// in due order, one not yet due fires on time, and one stopped while it
// waits never fires.
func TestAfterOrderingAndCancel(t *testing.T) {
	sim, a, _, nw := newPair(t)
	var fired []string
	a.After(20*time.Millisecond, func() { fired = append(fired, "late") })
	a.After(5*time.Millisecond, func() { fired = append(fired, "early") })
	stopped := a.After(10*time.Millisecond, func() { fired = append(fired, "cancelled") })
	stopped.Stop()
	stopped.Stop() // a second Stop must be a no-op
	var zero p2p.Timer
	zero.Stop() // so must Stop on a timer never armed
	sim.RunUntilIdle()
	if len(fired) != 2 || fired[0] != "early" || fired[1] != "late" {
		t.Fatalf("fired = %v, want [early late]", fired)
	}
	if sim.Now() < 20*time.Millisecond {
		t.Fatalf("clock did not advance past the last timer: %v", sim.Now())
	}

	// A handle kept past its timer's firing stops nothing, not even the
	// later timer the runtime arms on the same record.
	fired = nil
	old := a.After(time.Millisecond, func() { fired = append(fired, "old") })
	sim.RunUntilIdle()
	a.After(time.Millisecond, func() { fired = append(fired, "reuse") })
	old.Stop()
	sim.RunUntilIdle()
	if len(fired) != 2 || fired[1] != "reuse" {
		t.Fatalf("fired = %v, want [old reuse]: a stale handle stopped a later timer", fired)
	}

	// A crash pauses timers: down from +5 ms to +30 ms, the timers due at
	// +20 and +10 ms fire at recovery in due order, the one stopped while
	// it waits never does, and the one due at +40 ms fires on time.
	fired = nil
	at := map[string]time.Duration{}
	after := func(d time.Duration, name string) p2p.Timer {
		return a.After(d, func() { fired, at[name] = append(fired, name), sim.Now() })
	}
	t0 := sim.Now()
	after(20*time.Millisecond, "second")
	after(10*time.Millisecond, "first")
	parked := after(15*time.Millisecond, "stopped")
	after(40*time.Millisecond, "on-time")
	sim.Schedule(5*time.Millisecond, func() { nw.Fail(a.ID()) })
	sim.Schedule(25*time.Millisecond, func() { parked.Stop() })
	sim.Schedule(30*time.Millisecond, func() { nw.Recover(a.ID()) })
	sim.RunUntilIdle()
	if want := []string{"first", "second", "on-time"}; !slices.Equal(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	if at["first"] != t0+30*time.Millisecond || at["second"] != t0+30*time.Millisecond || at["on-time"] != t0+40*time.Millisecond {
		t.Fatalf("fired at %v, want the paused timers at recovery (+30ms) and the last at +40ms", at)
	}
}

// TestClockAdvancesOnlyWithEvents pins Now(): virtual time moves with the
// event loop, not with wall time.
func TestClockAdvancesOnlyWithEvents(t *testing.T) {
	sim, a, _, _ := newPair(t)
	if a.Now() != 0 {
		t.Fatalf("fresh runtime clock = %v, want 0", a.Now())
	}
	a.After(time.Second, func() {})
	sim.RunUntilIdle()
	if a.Now() != time.Second {
		t.Fatalf("clock = %v after a 1s timer, want exactly 1s", a.Now())
	}
}

// TestSendToFailedPeerIsDropped pins the delivery clause: messages to failed
// peers vanish silently, and recovery restores delivery.
func TestSendToFailedPeerIsDropped(t *testing.T) {
	sim, a, b, nw := newPair(t)
	delivered := 0
	b.Handle("test.m", func(p2p.Node, p2p.Message) { delivered++ })

	nw.Fail(b.ID())
	if nw.Alive(b.ID()) {
		t.Fatalf("failed node still Alive")
	}
	a.Send(p2p.Message{Type: "test.m", To: b.ID()})
	sim.RunUntilIdle()
	if delivered != 0 {
		t.Fatalf("message delivered to a failed peer")
	}

	nw.Recover(b.ID())
	if !nw.Alive(b.ID()) {
		t.Fatalf("recovered node not Alive")
	}
	a.Send(p2p.Message{Type: "test.m", To: b.ID()})
	sim.RunUntilIdle()
	if delivered != 1 {
		t.Fatalf("delivered %d after recovery, want 1", delivered)
	}
}

// TestRandIsSeededStream pins Rand(): the runtime exposes one deterministic
// stream, so two identically seeded runtimes draw identical values.
func TestRandIsSeededStream(t *testing.T) {
	draw := func() []int64 {
		sim := simnet.NewSim()
		nw := simnet.NewNetwork(sim, simnet.ConstantLatency(0), rand.New(rand.NewSource(7)))
		n := nw.AddNode(0)
		out := make([]int64, 8)
		for i := range out {
			out[i] = n.Rand().Int63()
		}
		return out
	}
	x, y := draw(), draw()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("draw %d differs across identically seeded runtimes: %d vs %d", i, x[i], y[i])
		}
	}
}
