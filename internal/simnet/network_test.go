package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/p2p"
)

func newTestNet(nodes int) (*Network, []p2p.Node) {
	sim := NewSim()
	nw := NewNetwork(sim, ConstantLatency(10*time.Millisecond), rand.New(rand.NewSource(1)))
	ns := make([]p2p.Node, nodes)
	for i := range ns {
		ns[i] = nw.AddNode(p2p.NodeID(i))
	}
	return nw, ns
}

func TestSendDeliversWithLatency(t *testing.T) {
	nw, ns := newTestNet(2)
	var gotAt time.Duration
	var got p2p.Message
	ns[1].Handle("ping", func(n p2p.Node, msg p2p.Message) {
		gotAt = n.Now()
		got = msg
	})
	ns[0].Send(p2p.Message{Type: "ping", To: 1, Size: 100, Payload: "hello"})
	nw.Sim().RunUntilIdle()
	if gotAt != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", gotAt)
	}
	if got.From != 0 || got.To != 1 || got.Payload != "hello" {
		t.Fatalf("msg=%+v", got)
	}
	st := nw.Stats()
	if st.MessagesSent != 1 || st.Delivered != 1 || st.BytesSent != 100 {
		t.Fatalf("stats=%+v", st)
	}
	if st.ByType["ping"] != 1 || st.BytesByType["ping"] != 100 {
		t.Fatalf("ByType=%v BytesByType=%v", st.ByType, st.BytesByType)
	}
	// A snapshot is a copy: later traffic must not show through it.
	ns[0].Send(p2p.Message{Type: "ping", To: 1, Size: 40})
	if st.BytesByType["ping"] != 100 || nw.Stats().BytesByType["ping"] != 140 {
		t.Fatalf("snapshot %v, live %v", st.BytesByType, nw.Stats().BytesByType)
	}
}

func TestSendToFailedNodeDropped(t *testing.T) {
	nw, ns := newTestNet(2)
	delivered := false
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { delivered = true })
	nw.Fail(1)
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	if delivered {
		t.Fatal("message delivered to failed node")
	}
	if nw.Stats().Dropped != 1 {
		t.Fatalf("stats=%+v", nw.Stats())
	}
}

func TestInFlightMessageToFailingNodeDropped(t *testing.T) {
	nw, ns := newTestNet(2)
	delivered := false
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { delivered = true })
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	// Fail the destination while the message is in flight.
	nw.Sim().Schedule(5*time.Millisecond, func() { nw.Fail(1) })
	nw.Sim().RunUntilIdle()
	if delivered {
		t.Fatal("in-flight message delivered to node that failed before arrival")
	}
}

func TestFailedNodeSendsNothing(t *testing.T) {
	nw, ns := newTestNet(2)
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) {})
	nw.Fail(0)
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	if nw.Stats().MessagesSent != 0 {
		t.Fatal("failed node transmitted a message")
	}
}

func TestRecoverRestoresDelivery(t *testing.T) {
	nw, ns := newTestNet(2)
	count := 0
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { count++ })
	nw.Fail(1)
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	nw.Recover(1)
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	if count != 1 {
		t.Fatalf("count=%d, want 1 (only post-recovery message)", count)
	}
}

func TestTimersDieWithNode(t *testing.T) {
	nw, ns := newTestNet(1)
	fired := false
	ns[0].After(20*time.Millisecond, func() { fired = true })
	nw.Sim().Schedule(5*time.Millisecond, func() { nw.Fail(0) })
	nw.Sim().RunUntilIdle()
	if fired {
		t.Fatal("timer fired on failed node")
	}
}

// TestTimersDueWhileDownFireAtRecovery pins the crash model: a crash pauses
// a node's timers. Down from 5 ms to 30 ms, the timers due at 20, 12 and
// 10 ms fire once each at 30 ms in due order, the one a global event stops
// while it waits never fires, nor does the one the 12 ms timer stops as it
// fires, the one due at 40 ms fires on time, and a second crash parks the
// 50 ms timer again.
func TestTimersDueWhileDownFireAtRecovery(t *testing.T) {
	nw, ns := newTestNet(1)
	sim := nw.Sim()
	type firing struct {
		name string
		at   time.Duration
	}
	var fired []firing
	after := func(d time.Duration, name string) p2p.Timer {
		return ns[0].After(d, func() { fired = append(fired, firing{name, sim.Now()}) })
	}
	after(20*time.Millisecond, "second")
	after(10*time.Millisecond, "first")
	parked := after(15*time.Millisecond, "stopped")
	var victim p2p.Timer
	ns[0].After(12*time.Millisecond, func() {
		victim.Stop()
		fired = append(fired, firing{"stopper", sim.Now()})
	})
	victim = after(14*time.Millisecond, "victim")
	after(40*time.Millisecond, "on-time")
	after(50*time.Millisecond, "down-again")
	sim.Schedule(5*time.Millisecond, func() { nw.Fail(0) })
	sim.Schedule(25*time.Millisecond, func() {
		parked.Stop()
		parked.Stop()
	})
	sim.Schedule(30*time.Millisecond, func() { nw.Recover(0) })
	sim.Schedule(45*time.Millisecond, func() { nw.Fail(0) })
	sim.Schedule(60*time.Millisecond, func() { nw.Recover(0) })
	sim.RunUntilIdle()
	want := []firing{{"first", 30 * time.Millisecond}, {"stopper", 30 * time.Millisecond}, {"second", 30 * time.Millisecond},
		{"on-time", 40 * time.Millisecond}, {"down-again", 60 * time.Millisecond}}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if sim.Pending() != 0 {
		t.Fatalf("%d events left pending", sim.Pending())
	}
}

func TestTimerCancel(t *testing.T) {
	nw, ns := newTestNet(1)
	fired := false
	timer := ns[0].After(10*time.Millisecond, func() { fired = true })
	timer.Stop()
	nw.Sim().RunUntilIdle()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// TestAfterFireAllocs pins a node timer at no object beyond the caller's fn:
// with the freelist warm, arm→fire and arm→Stop each allocate nothing — the
// crash guard lives in the pooled event, not in a wrapper closure.
func TestAfterFireAllocs(t *testing.T) {
	nw, ns := newTestNet(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		ns[0].After(0, fn)
	}
	nw.Sim().RunUntilIdle()
	if avg := testing.AllocsPerRun(1000, func() {
		ns[0].After(time.Microsecond, fn)
		nw.Sim().Step()
	}); avg != 0 {
		t.Fatalf("After→fire allocates %.2f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		ns[0].After(time.Microsecond, fn).Stop()
	}); avg != 0 {
		t.Fatalf("After→Stop allocates %.2f objects/op, want 0", avg)
	}
}

func TestUnhandledMessageCounted(t *testing.T) {
	nw, ns := newTestNet(2)
	ns[0].Send(p2p.Message{Type: "mystery", To: 1})
	nw.Sim().RunUntilIdle()
	if nw.Stats().Unhandled != 1 {
		t.Fatalf("stats=%+v", nw.Stats())
	}
}

func TestHandlerReplacement(t *testing.T) {
	nw, ns := newTestNet(2)
	which := 0
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { which = 1 })
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { which = 2 })
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	if which != 2 {
		t.Fatalf("which=%d, want replacement handler", which)
	}
}

func TestResetStats(t *testing.T) {
	nw, ns := newTestNet(2)
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) {})
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	nw.ResetStats()
	st := nw.Stats()
	if st.MessagesSent != 0 || st.Delivered != 0 || len(st.ByType) != 0 || len(st.BytesByType) != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestRequestReplyRoundTrip(t *testing.T) {
	nw, ns := newTestNet(2)
	var replyAt time.Duration
	ns[1].Handle("req", func(n p2p.Node, msg p2p.Message) {
		n.Send(p2p.Message{Type: "resp", To: msg.From})
	})
	ns[0].Handle("resp", func(n p2p.Node, msg p2p.Message) { replyAt = n.Now() })
	ns[0].Send(p2p.Message{Type: "req", To: 1})
	nw.Sim().RunUntilIdle()
	if replyAt != 20*time.Millisecond {
		t.Fatalf("round trip completed at %v, want 20ms", replyAt)
	}
}

func TestAliveAndNumNodes(t *testing.T) {
	nw, _ := newTestNet(3)
	if nw.NumNodes() != 3 {
		t.Fatalf("NumNodes=%d", nw.NumNodes())
	}
	if !nw.Alive(0) || nw.Alive(99) {
		t.Fatal("Alive misreported")
	}
	nw.Fail(0)
	if nw.Alive(0) {
		t.Fatal("failed node reported alive")
	}
	if nw.Node(0) == nil || nw.Node(99) != nil {
		t.Fatal("Node lookup misbehaved")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	nw, _ := newTestNet(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	nw.AddNode(0)
}

// TestAddNodeSequentialGrowthIsLinear guards the node table against the
// copy-on-every-add growth it once had: 200k sequential adds allocated and
// copied ~160 GB of pointer slots (2m39s on the 2-core reference box);
// geometric growth takes ~40 ms.
func TestAddNodeSequentialGrowthIsLinear(t *testing.T) {
	const n = 200_000
	nw := NewNetwork(NewSim(), ConstantLatency(time.Millisecond), rand.New(rand.NewSource(1)))
	start := time.Now()
	for i := 0; i < n; i++ {
		nw.AddNode(p2p.NodeID(i))
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("%d sequential AddNodes took %v, want well under 5s", n, took)
	}
	if nw.NumNodes() != n || len(nw.dense) != n {
		t.Fatalf("NumNodes=%d len(dense)=%d, want %d", nw.NumNodes(), len(nw.dense), n)
	}
	if nw.Node(0) == nil || nw.Node(n-1) == nil || nw.Node(n) != nil {
		t.Fatal("Node lookup misbehaved after growth")
	}
}

// TestAddNodeGrowsAndRefusesNegativeIDs pins the table's shape rules: an ID
// past the end grows the table to exactly id+1 (gap slots unregistered), a
// gap ID fills its slot in place, and a negative ID is refused with the ID
// in the panic.
func TestAddNodeGrowsAndRefusesNegativeIDs(t *testing.T) {
	nw, _ := newTestNet(3)
	far := p2p.NodeID(3000)
	if nw.AddNode(far).ID() != far {
		t.Fatalf("AddNode(%d) returned a node with another ID", far)
	}
	if len(nw.dense) != int(far)+1 || nw.NumNodes() != 4 {
		t.Fatalf("len(dense)=%d NumNodes=%d, want %d and 4", len(nw.dense), nw.NumNodes(), int(far)+1)
	}
	for _, id := range []p2p.NodeID{0, 2, far} {
		if nw.Node(id) == nil || !nw.Alive(id) {
			t.Fatalf("node %d not found alive", id)
		}
	}
	if nw.Node(3) != nil || nw.Node(far-1) != nil || nw.Node(far+1) != nil || nw.Node(-7) != nil {
		t.Fatal("an unregistered ID reported a node")
	}
	nw.AddNode(5)
	if nw.Node(5) == nil || len(nw.dense) != int(far)+1 || nw.NumNodes() != 5 {
		t.Fatal("filling a gap changed the table shape")
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "-7") {
			t.Fatalf("AddNode(-7) panicked with %v, want a message naming -7", r)
		}
		if nw.NumNodes() != 5 {
			t.Fatalf("NumNodes=%d after a refused add, want 5", nw.NumNodes())
		}
	}()
	nw.AddNode(-7)
}
