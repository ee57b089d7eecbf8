package bcp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simnet"
)

// discoveryRing is n peers on one DHT ring, each with a registry and an
// engine that hosts nothing: enough to drive discoverAllCached.
func discoveryRing(n int) (*simnet.Network, []*Engine) {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(5*time.Millisecond), rand.New(rand.NewSource(1)))
	nodes := make([]*dht.Node, n)
	engines := make([]*Engine, n)
	for i := range nodes {
		host := nw.AddNode(p2p.NodeID(i))
		nodes[i] = dht.New(host, nw.Alive)
		engines[i] = NewEngine(host, qos.NewLedger(qos.Resources{}), registry.New(nodes[i]), nil, nil, DefaultConfig())
	}
	dht.Build(nodes)
	return nw, engines
}

// TestDiscoverAllCachedJoinsLookups: a function named twice is looked up
// once and both entries get its list, the lookups run concurrently, and a
// second resolution inside the cache TTL is served without the DHT, before
// the call returns.
func TestDiscoverAllCachedJoinsLookups(t *testing.T) {
	nw, engines := discoveryRing(50)
	fns := []string{"a", "b", "c"}
	for i, fn := range fns {
		for r := 0; r < 2; r++ {
			p := 1 + i*3 + r
			engines[p].reg.Register(service.Component{
				ID: fmt.Sprintf("p%d/%s.%d", p, fn, r), Function: fn, Peer: p2p.NodeID(p),
			})
		}
	}
	nw.Sim().RunUntilIdle()

	e := engines[0]
	asked := []string{"a", "b", "c", "a"}
	var table []dups
	sent := nw.Stats().MessagesSent
	start := nw.Sim().Now()
	var elapsed time.Duration
	e.discoverAllCached(asked, 0, func(tb []dups, ok bool) {
		if !ok {
			t.Error("discovery failed")
		}
		table, elapsed = tb, nw.Sim().Now()-start
	})
	if table != nil {
		t.Fatal("cold resolution called back before any lookup could return")
	}
	nw.Sim().RunUntilIdle()
	if len(table) != len(asked) {
		t.Fatalf("callback delivered %d entries for %d functions", len(table), len(asked))
	}
	for i, d := range table {
		if d.fn != asked[i] || len(d.comps) != 2 {
			t.Fatalf("entry %d: function %q with %d duplicates, want %q with 2", i, d.fn, len(d.comps), asked[i])
		}
	}
	if &table[0].comps[0] != &table[3].comps[0] {
		t.Fatal("the second \"a\" did not share the first one's lookup")
	}
	// Lookups run concurrently: total time must be far below 3 sequential
	// lookups (each several 5ms hops).
	if elapsed > 200*time.Millisecond {
		t.Fatalf("resolution took %v; lookups appear serialized", elapsed)
	}

	cold := nw.Stats().MessagesSent - sent
	sent = nw.Stats().MessagesSent
	warm := false
	e.discoverAllCached(asked, 0, func(tb []dups, ok bool) {
		warm = ok && len(tb) == len(asked) && len(tb[2].comps) == 2
	})
	if !warm {
		t.Fatal("a resolution the cache serves must call back synchronously")
	}
	if cold == 0 || nw.Stats().MessagesSent != sent {
		t.Fatalf("cold resolution sent %d messages, warm one %d", cold, nw.Stats().MessagesSent-sent)
	}
}

func TestDiscoverAllCachedEmptyFunctionList(t *testing.T) {
	_, engines := discoveryRing(5)
	called := false
	engines[0].discoverAllCached(nil, 0, func(tb []dups, ok bool) {
		called = true
		if !ok || len(tb) != 0 {
			t.Errorf("tb=%v ok=%v", tb, ok)
		}
	})
	if !called {
		t.Fatal("an empty resolution must call back synchronously")
	}
}
