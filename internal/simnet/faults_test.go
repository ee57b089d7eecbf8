package simnet

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
)

func TestLossDropsEverythingAtRateOne(t *testing.T) {
	nw, ns := newTestNet(2)
	nw.SetFaults(FaultPlan{Seed: 1, Default: LinkFaults{Loss: 1}})
	events := netEvents(nw)
	delivered := 0
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { delivered++ })
	for i := 0; i < 10; i++ {
		ns[0].Send(p2p.Message{Type: "ping", To: 1})
	}
	nw.Sim().RunUntilIdle()
	if delivered != 0 {
		t.Fatalf("delivered=%d, want 0 under loss=1", delivered)
	}
	if events[obs.FaultLoss] != 10 {
		t.Fatalf("events=%v, want 10 loss faults", events)
	}
	if events[obs.KindNetDrop] != 0 {
		t.Fatalf("events=%v: fault kills must not count as dead-node drops", events)
	}
}

func TestLossZeroRateDrawsNothing(t *testing.T) {
	// A plan with all-zero rates must behave exactly like no plan at all.
	nw, ns := newTestNet(2)
	nw.SetFaults(FaultPlan{Seed: 99, Default: LinkFaults{}})
	if nw.faults != nil {
		t.Fatal("empty plan should not install fault state")
	}
	got := 0
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { got++ })
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	if got != 1 {
		t.Fatalf("got=%d", got)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	nw, ns := newTestNet(2)
	nw.SetFaults(FaultPlan{Seed: 1, Default: LinkFaults{Dup: 1}})
	events := netEvents(nw)
	count := 0
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { count++ })
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	if count != 2 {
		t.Fatalf("count=%d, want 2 under dup=1", count)
	}
	if events[obs.FaultDup] != 1 {
		t.Fatalf("events=%v, want 1 dup fault", events)
	}
}

func TestJitterDelaysWithinBound(t *testing.T) {
	nw, ns := newTestNet(2)
	const jitter = 5 * time.Millisecond
	nw.SetFaults(FaultPlan{Seed: 7, Default: LinkFaults{Jitter: jitter}})
	var at time.Duration
	count := 0
	ns[1].Handle("ping", func(n p2p.Node, _ p2p.Message) { at = n.Now(); count++ })
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	if count != 1 {
		t.Fatalf("count=%d", count)
	}
	base := 10 * time.Millisecond
	if at < base || at > base+jitter {
		t.Fatalf("delivered at %v, want within [%v, %v]", at, base, base+jitter)
	}
}

func TestJitterReorders(t *testing.T) {
	// With jitter comparable to the spacing between sends, some pair of
	// back-to-back messages must arrive out of order.
	nw, ns := newTestNet(2)
	nw.SetFaults(FaultPlan{Seed: 3, Default: LinkFaults{Jitter: 20 * time.Millisecond}})
	var order []int
	ns[1].Handle("seq", func(_ p2p.Node, msg p2p.Message) {
		order = append(order, msg.Payload.(int))
	})
	for i := 0; i < 20; i++ {
		i := i
		nw.Sim().Schedule(time.Duration(i)*time.Millisecond, func() {
			ns[0].Send(p2p.Message{Type: "seq", To: 1, Payload: i})
		})
	}
	nw.Sim().RunUntilIdle()
	if len(order) != 20 {
		t.Fatalf("delivered %d of 20", len(order))
	}
	reordered := false
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Fatalf("no reordering observed: %v", order)
	}
}

func TestPartitionWindowCutsBothDirectionsThenHeals(t *testing.T) {
	nw, ns := newTestNet(2)
	nw.SetFaults(FaultPlan{
		Seed: 1,
		Partitions: []Partition{{
			Name: "test", A: []p2p.NodeID{0}, B: []p2p.NodeID{1},
			From: 5 * time.Millisecond, Until: 15 * time.Millisecond,
		}},
	})
	events := netEvents(nw)
	var got []string
	ns[0].Handle("m", func(_ p2p.Node, msg p2p.Message) { got = append(got, msg.Payload.(string)) })
	ns[1].Handle("m", func(_ p2p.Node, msg p2p.Message) { got = append(got, msg.Payload.(string)) })
	sendAt := func(at time.Duration, from, to int, tag string) {
		nw.Sim().Schedule(at, func() {
			ns[from].Send(p2p.Message{Type: "m", To: p2p.NodeID(to), Payload: tag})
		})
	}
	sendAt(0, 0, 1, "before")              // sent before the window: delivers
	sendAt(6*time.Millisecond, 0, 1, "in") // inside: cut
	sendAt(7*time.Millisecond, 1, 0, "in-rev")
	sendAt(15*time.Millisecond, 0, 1, "after") // at Until: healed
	nw.Sim().RunUntilIdle()
	if len(got) != 2 || got[0] != "before" || got[1] != "after" {
		t.Fatalf("got=%v, want [before after]", got)
	}
	if events[obs.FaultPartition] != 2 {
		t.Fatalf("events=%v, want 2 partitioned sends", events)
	}
}

func TestPartitionSparesUninvolvedNodes(t *testing.T) {
	nw, ns := newTestNet(3)
	nw.SetFaults(FaultPlan{
		Seed:       1,
		Partitions: []Partition{{Name: "ab", A: []p2p.NodeID{0}, B: []p2p.NodeID{1}}},
	})
	got := 0
	ns[2].Handle("m", func(p2p.Node, p2p.Message) { got++ })
	ns[0].Send(p2p.Message{Type: "m", To: 2})
	ns[1].Send(p2p.Message{Type: "m", To: 2})
	nw.Sim().RunUntilIdle()
	if got != 2 {
		t.Fatalf("got=%d, want 2: node 2 is on neither side", got)
	}
}

func TestExactLinkOverrideWinsOverDefault(t *testing.T) {
	nw, ns := newTestNet(3)
	nw.SetFaults(FaultPlan{
		Seed:    1,
		Default: LinkFaults{Loss: 1},
		// The 0->1 link is explicitly clean: the override replaces the
		// default entirely rather than merging with it.
		Links: map[[2]p2p.NodeID]LinkFaults{{0, 1}: {}},
	})
	got := map[p2p.NodeID]int{}
	for _, n := range ns[1:] {
		n := n
		n.Handle("m", func(p2p.Node, p2p.Message) { got[n.ID()]++ })
	}
	ns[0].Send(p2p.Message{Type: "m", To: 1})
	ns[0].Send(p2p.Message{Type: "m", To: 2})
	nw.Sim().RunUntilIdle()
	if got[1] != 1 || got[2] != 0 {
		t.Fatalf("got=%v, want link 0->1 clean and 0->2 lossy", got)
	}
}

func TestNodeFaultsMergeMax(t *testing.T) {
	fs := newFaultState(FaultPlan{
		Seed:    1,
		Default: LinkFaults{Loss: 0.1},
		Nodes: map[p2p.NodeID]LinkFaults{
			3: {Loss: 0.5, Jitter: 2 * time.Millisecond},
			4: {Dup: 0.2},
		},
	})
	lf := fs.link(3, 4)
	want := LinkFaults{Loss: 0.5, Dup: 0.2, Jitter: 2 * time.Millisecond}
	if lf != want {
		t.Fatalf("link(3,4)=%+v, want %+v", lf, want)
	}
	if lf := fs.link(1, 2); lf != (LinkFaults{Loss: 0.1}) {
		t.Fatalf("link(1,2)=%+v, want default only", lf)
	}
}

func TestFaultPlanShift(t *testing.T) {
	p := FaultPlan{Partitions: []Partition{
		{From: 10 * time.Second, Until: 20 * time.Second},
		{From: 5 * time.Second}, // Until==0 means "never heals": must stay 0
	}}
	s := p.Shift(3 * time.Second)
	if s.Partitions[0].From != 13*time.Second || s.Partitions[0].Until != 23*time.Second {
		t.Fatalf("shifted[0]=%+v", s.Partitions[0])
	}
	if s.Partitions[1].From != 8*time.Second || s.Partitions[1].Until != 0 {
		t.Fatalf("shifted[1]=%+v", s.Partitions[1])
	}
	if p.Partitions[0].From != 10*time.Second {
		t.Fatal("Shift mutated the original plan")
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func() []time.Duration {
		sim := NewSim()
		nw := NewNetwork(sim, ConstantLatency(10*time.Millisecond), rand.New(rand.NewSource(1)))
		a := nw.AddNode(0)
		b := nw.AddNode(1)
		var times []time.Duration
		b.Handle("m", func(n p2p.Node, _ p2p.Message) { times = append(times, n.Now()) })
		nw.SetFaults(FaultPlan{Seed: 42, Default: LinkFaults{Loss: 0.3, Dup: 0.2, Jitter: 8 * time.Millisecond}})
		for i := 0; i < 50; i++ {
			i := i
			sim.Schedule(time.Duration(i)*time.Millisecond, func() {
				a.Send(p2p.Message{Type: "m", To: 1})
			})
		}
		sim.RunUntilIdle()
		return times
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("runs delivered %d vs %d messages", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("delivery %d at %v vs %v", i, t1[i], t2[i])
		}
	}
	if len(t1) == 0 || len(t1) == 100 {
		t.Fatalf("degenerate run: %d deliveries", len(t1))
	}
}

// Regression pin: a message (or fault-plane duplicate) that was in flight
// when its destination crashed must NOT be delivered after the destination
// recovers. Recovery bumps the node's epoch; deliveries stamped with the old
// epoch die as drops.
func TestInFlightMessageNotResurrectedByRecover(t *testing.T) {
	nw, ns := newTestNet(2)
	events := netEvents(nw)
	delivered := 0
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { delivered++ })
	ns[0].Send(p2p.Message{Type: "ping", To: 1}) // arrives at t=10ms
	nw.Sim().Schedule(2*time.Millisecond, func() { nw.Fail(1) })
	nw.Sim().Schedule(4*time.Millisecond, func() { nw.Recover(1) })
	nw.Sim().RunUntilIdle()
	if delivered != 0 {
		t.Fatalf("delivered=%d: pre-crash in-flight message resurrected by Recover", delivered)
	}
	if events[obs.KindNetDrop] != 1 {
		t.Fatalf("events=%v, want 1 net.drop (the stale-epoch copy must be accounted)", events)
	}
	// Post-recovery traffic flows normally.
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	nw.Sim().RunUntilIdle()
	if delivered != 1 {
		t.Fatalf("delivered=%d after recovery, want 1", delivered)
	}
}

func TestDuplicatedCopyNotResurrectedByRecover(t *testing.T) {
	nw, ns := newTestNet(2)
	nw.SetFaults(FaultPlan{Seed: 1, Default: LinkFaults{Dup: 1, Jitter: 30 * time.Millisecond}})
	events := netEvents(nw)
	delivered := 0
	ns[1].Handle("ping", func(p2p.Node, p2p.Message) { delivered++ })
	ns[0].Send(p2p.Message{Type: "ping", To: 1})
	// Crash+recover while both copies (base delay 10ms, plus jitter) can
	// still be in flight.
	nw.Sim().Schedule(1*time.Millisecond, func() { nw.Fail(1) })
	nw.Sim().Schedule(2*time.Millisecond, func() { nw.Recover(1) })
	nw.Sim().RunUntilIdle()
	if delivered != 0 {
		t.Fatalf("delivered=%d: duplicated pre-crash copy resurrected by Recover", delivered)
	}
	if events[obs.KindNetDrop] != 2 {
		t.Fatalf("events=%v, want both stale copies dropped", events)
	}
}
