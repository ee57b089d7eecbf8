package bcp_test

import (
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
)

// Failure-injection tests: peers die at awkward points of the protocol and
// the system must fail cleanly — no hung callbacks, no leaked allocations.

// allLedgersClean asserts no LIVE peer holds hard or soft allocations. A
// crashed peer's timers wait for it to come back, and what they would free
// waits with them, so dead peers are exempt.
func allLedgersClean(t *testing.T, c *cluster.Cluster, context string) {
	t.Helper()
	for i, p := range c.Peers {
		if !c.Net.Alive(p2p.NodeID(i)) {
			continue
		}
		if got := p.Ledger.HardAllocated(); got != (qos.Resources{}) {
			t.Fatalf("%s: peer %d leaks hard allocation %v", context, i, got)
		}
		if got := p.Ledger.SoftAllocated(); got != (qos.Resources{}) {
			t.Fatalf("%s: peer %d leaks soft reservation %v", context, i, got)
		}
	}
}

// onFirst is a tracer that runs fn once, inside the event that emits the
// first record of the given kind — a protocol-relative trigger that does not
// depend on how long each phase happens to take.
type onFirst struct {
	kind string
	fn   func()
}

func (o *onFirst) Emit(ev obs.Event) {
	if o.fn != nil && ev.Kind == o.kind {
		fn := o.fn
		o.fn = nil
		fn()
	}
}

func TestDestFailsMidCollection(t *testing.T) {
	// Kill the destination while probes are in flight: right after it
	// collected its first report, before the rest can complete the credit.
	kill := &onFirst{kind: obs.KindProbeCollected}
	c := cluster.New(cluster.Options{Seed: 90, Peers: 50, Catalog: catalog(6), Trace: kill})
	req := req3(c, 1, 24)
	kill.fn = func() { c.Net.Fail(req.Dest) }

	done := false
	var out bcp.Result
	c.Peers[int(req.Source)].Engine.Compose(req, func(r bcp.Result) {
		done = true
		out = r
	})
	c.Sim.Run(c.Sim.Now() + 60*time.Second)

	if !done {
		t.Fatal("compose callback never fired (give-up timer broken)")
	}
	if out.Ok {
		t.Fatal("composition succeeded despite dead destination")
	}
	allLedgersClean(t, c, "dest failure")
}

func TestChosenPeerFailsBeforeAck(t *testing.T) {
	// Learn which peer the deterministic run selects for the FIRST function
	// (the last ACK hop, so sink+middle commit before the chain breaks).
	probe := cluster.New(cluster.Options{Seed: 91, Peers: 50, Catalog: catalog(6)})
	preq := req3(probe, 1, 24)
	var chosenFirst p2p.NodeID = p2p.NoNode
	probe.Peers[int(preq.Source)].Engine.Compose(preq, func(r bcp.Result) {
		if r.Ok {
			chosenFirst = r.Best.Comps[0].Comp.Peer
		}
	})
	probe.Sim.Run(probe.Sim.Now() + 60*time.Second)
	if chosenFirst == p2p.NoNode {
		t.Skip("baseline composition failed")
	}
	if chosenFirst == preq.Source || chosenFirst == preq.Dest {
		t.Skip("chosen peer is an endpoint; cannot fail it")
	}

	// Replay on a fresh identical cluster, killing that peer after the
	// probes have passed it but before the ACK reaches it: at selection, when
	// the ACK leaves the destination for the sink end of the graph.
	kill := &onFirst{kind: obs.KindSelectDone}
	c := cluster.New(cluster.Options{Seed: 91, Peers: 50, Catalog: catalog(6), Trace: kill})
	kill.fn = func() { c.Net.Fail(chosenFirst) }
	req := req3(c, 1, 24)
	done := false
	var out bcp.Result
	c.Peers[int(req.Source)].Engine.Compose(req, func(r bcp.Result) {
		done = true
		out = r
	})
	c.Sim.Run(c.Sim.Now() + 120*time.Second)

	if !done {
		t.Fatal("compose callback never fired")
	}
	if out.Ok && out.Best.ContainsPeer(chosenFirst) {
		t.Fatal("result uses the failed peer")
	}
	// Whether the outcome was a clean failure (give-up rollback of the
	// partially committed graph) or a success on an alternative graph, no
	// allocation may leak once sessions are torn down.
	if out.Ok {
		c.Peers[int(req.Source)].Engine.Teardown(out.Best)
		c.Sim.Run(c.Sim.Now() + 10*time.Second)
	}
	allLedgersClean(t, c, "ack-path failure")
}

func TestAllComponentPeersFail(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 92, Peers: 40, Catalog: catalog(3)})
	req := req3(c, 1, 16)
	// Kill every replica of the first function before composing.
	for _, comp := range c.ComponentsFor(req.FGraph.Function(0)) {
		if comp.Peer != req.Source && comp.Peer != req.Dest {
			c.Net.Fail(comp.Peer)
		}
	}
	done := false
	c.Peers[int(req.Source)].Engine.Compose(req, func(r bcp.Result) {
		done = true
		if r.Ok {
			for _, s := range r.Best.Comps {
				if !c.Net.Alive(s.Comp.Peer) {
					t.Error("composed onto a dead peer")
				}
			}
			c.Peers[int(req.Source)].Engine.Teardown(r.Best)
		}
	})
	c.Sim.Run(c.Sim.Now() + 60*time.Second)
	if !done {
		t.Fatal("compose callback never fired")
	}
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	allLedgersClean(t, c, "replica wipeout")
}

func TestTeardownIdempotent(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 93, Peers: 50, Catalog: catalog(6)})
	req := req3(c, 1, 24)
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	eng := c.Peers[int(req.Source)].Engine
	eng.Teardown(res.Best)
	c.Sim.Run(c.Sim.Now() + 5*time.Second)
	eng.Teardown(res.Best) // double teardown must be a no-op
	eng.Teardown(nil)      // nil-safe
	c.Sim.Run(c.Sim.Now() + 5*time.Second)
	allLedgersClean(t, c, "double teardown")

	// Bandwidth fully restored too: a fresh identical composition succeeds.
	req2 := req3(c, 2, 24)
	res2 := compose(c, req2)
	if !res2.Ok {
		t.Fatal("recomposition after teardown failed")
	}
}

func TestSourceFailsAwaitingResult(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 94, Peers: 50, Catalog: catalog(6)})
	req := req3(c, 1, 24)
	fired := false
	c.Peers[int(req.Source)].Engine.Compose(req, func(bcp.Result) { fired = true })
	// The source dies before the result returns; its callback must never
	// fire (the process is gone), and nothing may wedge the simulation.
	c.Sim.Schedule(200*time.Millisecond, func() { c.Net.Fail(req.Source) })
	c.Sim.Run(c.Sim.Now() + 60*time.Second)
	if fired {
		t.Fatal("callback fired on a dead source")
	}
	// The committed session (if the ACK completed) is stranded — that is
	// the correct semantic for a dead *application*; its resources belong
	// to the dead sender's session and are reclaimed when the peers notice
	// via their own failure handling (outside BCP's scope). What must NOT
	// leak are soft reservations.
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	for i, p := range c.Peers {
		if !c.Net.Alive(p2p.NodeID(i)) {
			continue
		}
		if got := p.Ledger.SoftAllocated(); got != (qos.Resources{}) {
			t.Fatalf("peer %d leaks soft reservation %v", i, got)
		}
	}
}
