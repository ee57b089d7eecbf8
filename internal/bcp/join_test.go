package bcp_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/simnet"
)

// TestProbesReachingOnePeerShareOneLookup: the probes of one request that
// converge on a peer while its lookup of their common next function is out
// wait on that lookup instead of sending their own, so no peer past the
// source sends more than the one get — and the first hops, handed the list by
// the source's probe, send none.
func TestProbesReachingOnePeerShareOneLookup(t *testing.T) {
	mem := &obs.MemSink{}
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Trace: mem, Obs: reg})
	req := req3(c, 1, 24)
	if res := compose(c, req); !res.Ok {
		t.Fatal("composition failed")
	}
	firstHop := map[p2p.NodeID]bool{}
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindProbeSent {
			firstHop[ev.Peer] = true
		}
	}
	joined, lookers := int64(0), 0
	for _, s := range reg.Snapshot() {
		switch {
		case s.ID == req.Source:
			if s.DiscLookups != 3 || s.DiscJoined != 0 {
				t.Errorf("the source sent %d gets and joined %d for 3 functions", s.DiscLookups, s.DiscJoined)
			}
		case s.DiscLookups > 1:
			t.Errorf("peer %d sent %d gets for one function (%d waited)", s.ID, s.DiscLookups, s.DiscJoined)
		case s.DiscLookups == 1:
			lookers++
			joined += s.DiscJoined
		case s.DiscJoined != 0:
			t.Errorf("peer %d sent no get and had %d probes wait on one", s.ID, s.DiscJoined)
		}
		if firstHop[s.ID] && s.DiscCarried == 0 && s.DiscCacheHits == 0 {
			t.Errorf("first hop %d installed no list and served none from its cache", s.ID)
		}
	}
	if lookers == 0 || joined < 2 {
		t.Fatalf("%d peers looked up, %d probes waited on another's lookup: the run exercised nothing", lookers, joined)
	}
}

// TestLookupTimeoutDropsEveryWaitingProbe: the peer holding the chain's last
// function goes silent (up, but every message to or from it is lost) once the
// source has its lists. Each peer that needs that list sends one get, retries
// it once, and on the second timeout every probe that waited on it dies there
// with reason "discovery" — none hangs, none is lost from the accounting.
func TestLookupTimeoutDropsEveryWaitingProbe(t *testing.T) {
	mem := &obs.MemSink{}
	c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Trace: mem})
	req := req3(c, 1, 24)
	done := false
	root := discoverThenLaunch(t, c, mem, req, func(bcp.Result) { done = true })
	c.Net.SetFaults(simnet.FaultPlan{Seed: 1, Nodes: map[p2p.NodeID]simnet.LinkFaults{root: {Loss: 1}}})
	c.Sim.Run(c.Sim.Now() + 60*time.Second)
	if !done {
		t.Fatal("the composition never finished")
	}

	dropped, failed := map[p2p.NodeID]int{}, map[p2p.NodeID]int{}
	for _, ev := range mem.Events() {
		switch {
		case ev.Kind == obs.KindProbeDropped && ev.Note == "discovery":
			dropped[ev.Node]++
		case ev.Kind == obs.KindDHTGetFail:
			failed[ev.Node]++
		}
	}
	most := 0
	for peer, n := range dropped {
		if failed[peer] != 1 {
			t.Errorf("peer %d dropped %d probes on %d failed lookups, want one lookup", peer, n, failed[peer])
		}
		most = max(most, n)
	}
	if most < 2 || len(failed) != len(dropped) {
		t.Fatalf("lookups failed at %d peers, probes died of it at %d, at most %d at one: want several on one lookup",
			len(failed), len(dropped), most)
	}
	for _, v := range obs.Check(mem.Events()) {
		t.Errorf("invariant: %s", v)
	}
}

// TestCarriedListsExpireWithTheSourcesOwn: over random chains of peers that
// each compose with a list a predecessor's probe handed them — so it rides on
// from hop to hop, across several cache lifetimes — a peer's entry for the
// function only ever changes to one that expires exactly when the composing
// source's does, or to the answer of a lookup the peer itself sent in that
// very round. Nobody's trust in a list outlives that of whoever looked it up.
func TestCarriedListsExpireWithTheSourcesOwn(t *testing.T) {
	const cacheTTL = 30 * time.Second
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Obs: reg})
	rng := rand.New(rand.NewSource(3))
	fns := c.FunctionsByReplicas()
	carriedFn := fns[0]
	expiry := func(p int) time.Duration {
		l, _ := c.Peers[p].Engine.Remembered(carriedFn)
		return l.Expires
	}
	src, handedOn, lookedUp := 0, 0, 0
	for round := 0; round < 40; round++ {
		c.Sim.Run(c.Sim.Now() + time.Duration(rng.Intn(6000))*time.Millisecond)
		start := c.Sim.Now()
		before, gets := make([]time.Duration, len(c.Peers)), make([]int64, len(c.Peers))
		for p := range c.Peers {
			before[p], gets[p] = expiry(p), reg.Node(p2p.NodeID(p)).DiscLookups.Load()
		}
		req := req3(c, uint64(round+1), 12)
		req.FGraph = fgraph.Linear(fns[1+rng.Intn(len(fns)-1)], carriedFn)
		req.Source, req.Dest = p2p.NodeID(src), p2p.NodeID((src+1+rng.Intn(len(c.Peers)-1))%len(c.Peers))
		done := false
		c.Peers[src].Engine.Compose(req, func(bcp.Result) { done = true })
		for !done {
			c.Sim.Run(c.Sim.Now() + 100*time.Millisecond)
		}
		var holders []int
		for p := range c.Peers {
			now := expiry(p)
			if now > c.Sim.Now() {
				holders = append(holders, p)
			}
			switch {
			case now == before[p]:
			case now == expiry(src) && p != src:
				handedOn++
			case now >= start+cacheTTL && reg.Node(p2p.NodeID(p)).DiscLookups.Load() > gets[p]:
				lookedUp++
			default:
				t.Fatalf("round %d at %v: peer %d trusts its list until %v (was %v); source %d trusts its own until %v",
					round, start, p, now, before[p], src, expiry(src))
			}
		}
		// The next source is someone a list was handed to, if anyone holds one.
		if len(holders) > 0 {
			src = holders[rng.Intn(len(holders))]
		}
	}
	if tot := reg.Totals(); handedOn < 40 || lookedUp < 3 || tot.DiscCarried < int64(handedOn) || c.Sim.Now() < 3*cacheTTL {
		t.Fatalf("%d entries handed on (%d lists installed), %d looked up, %v of virtual time: the run exercised too little",
			handedOn, tot.DiscCarried, lookedUp, c.Sim.Now())
	}
}
