package simnet

import (
	"math/rand"
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

func TestTimersFromBeforeFailureStayDeadAfterRecovery(t *testing.T) {
	nw, ns := newTestNet(1)
	fired := false
	ns[0].After(30*time.Millisecond, func() { fired = true })
	nw.Sim().Schedule(5*time.Millisecond, func() { nw.Fail(0) })
	nw.Sim().Schedule(10*time.Millisecond, func() { nw.Recover(0) })
	nw.Sim().RunUntilIdle()
	if fired {
		t.Fatal("pre-failure timer fired after recovery (stale epoch)")
	}
}

func TestTimerCancel(t *testing.T) {
	nw, ns := newTestNet(1)
	fired := false
	cancel := ns[0].After(10*time.Millisecond, func() { fired = true })
	cancel()
	nw.Sim().RunUntilIdle()
	if fired {
		t.Fatal("cancelled timer fired")
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
	if nw.NumNodes() != n || len(nw.dense) != n || nw.sparse != nil {
		t.Fatalf("NumNodes=%d len(dense)=%d sparse=%d, want %d dense-only",
			nw.NumNodes(), len(nw.dense), len(nw.sparse), n)
	}
	if nw.Node(0) == nil || nw.Node(n-1) == nil || nw.Node(n) != nil {
		t.Fatal("Node lookup misbehaved after growth")
	}
}

// TestAddNodeDenseSlackAndSparseFallback pins the table's shape rules: an ID
// within denseSlack of the end grows the dense slice to exactly id+1 (gap
// slots unregistered), anything further out or negative lands in the map.
func TestAddNodeDenseSlackAndSparseFallback(t *testing.T) {
	nw, _ := newTestNet(3)
	near := p2p.NodeID(3 + denseSlack - 1)
	far := near + denseSlack + 1
	for _, id := range []p2p.NodeID{near, far, -7} {
		if nw.AddNode(id).ID() != id {
			t.Fatalf("AddNode(%d) returned a node with another ID", id)
		}
	}
	if len(nw.dense) != int(near)+1 {
		t.Fatalf("len(dense)=%d, want highest dense id + 1 = %d", len(nw.dense), int(near)+1)
	}
	if len(nw.sparse) != 2 || nw.sparse[far] == nil || nw.sparse[-7] == nil {
		t.Fatalf("sparse table = %v, want exactly ids %d and -7", nw.sparse, far)
	}
	if nw.NumNodes() != 6 {
		t.Fatalf("NumNodes=%d, want 6", nw.NumNodes())
	}
	for _, id := range []p2p.NodeID{0, 2, near, far, -7} {
		if nw.Node(id) == nil || !nw.Alive(id) {
			t.Fatalf("node %d not found alive", id)
		}
	}
	if nw.Node(3) != nil || nw.Node(near-1) != nil || nw.Node(far-1) != nil {
		t.Fatal("gap slot reported a registered node")
	}
	// A gap ID fills its dense slot in place.
	nw.AddNode(5)
	if nw.Node(5) == nil || len(nw.dense) != int(near)+1 || len(nw.sparse) != 2 {
		t.Fatal("filling a dense gap changed the table shape")
	}
}
