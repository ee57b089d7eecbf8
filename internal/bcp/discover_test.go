package bcp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/fgraph"
	"repro/internal/obs"
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
		engines[i] = NewEngine(host, nil, nw.Faulty, qos.NewLedger(qos.Resources{}), registry.New(nodes[i]), nil, nil, DefaultConfig())
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
	var table []List
	sent := nw.Stats().MessagesSent
	start := nw.Sim().Now()
	var elapsed time.Duration
	e.discover(asked, 0, func(tb []List, ok bool) {
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
		if d.Fn != asked[i] || len(d.Comps) != 2 {
			t.Fatalf("entry %d: function %q with %d duplicates, want %q with 2", i, d.Fn, len(d.Comps), asked[i])
		}
	}
	if &table[0].Comps[0] != &table[3].Comps[0] {
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
	e.discover(asked, 0, func(tb []List, ok bool) {
		warm = ok && len(tb) == len(asked) && len(tb[2].Comps) == 2
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
	engines[0].discover(nil, 0, func(tb []List, ok bool) {
		called = true
		if !ok || len(tb) != 0 {
			t.Errorf("tb=%v ok=%v", tb, ok)
		}
	})
	if !called {
		t.Fatal("an empty resolution must call back synchronously")
	}
}

// ringWithTwoRoots is a discoveryRing with one component each of functions
// "a" and "d" registered, an engine that holds a copy of neither, and the two
// (disjoint) sets of peers that store them — each key's root and its
// replicas, any of which may answer a lookup.
func ringWithTwoRoots(t *testing.T) (*simnet.Network, *Engine, [2][]p2p.NodeID) {
	t.Helper()
	nw, engines := discoveryRing(50)
	for i, fn := range []string{"a", "d"} {
		engines[1+i].reg.Register(service.Component{ID: "c/" + fn, Function: fn, Peer: p2p.NodeID(1 + i)})
	}
	nw.Sim().RunUntilIdle()
	var holders [2][]p2p.NodeID
	for i, fn := range []string{"a", "d"} {
		for _, e := range engines {
			if e.reg.DHT().StoredUnder(registry.FunctionKey(fn)) > 0 {
				holders[i] = append(holders[i], e.host.ID())
			}
		}
	}
	e := engines[0]
	if slices.ContainsFunc(holders[0], func(p p2p.NodeID) bool { return slices.Contains(holders[1], p) }) ||
		slices.Contains(holders[0], e.host.ID()) || slices.Contains(holders[1], e.host.ID()) {
		t.Fatalf("holders %v: want two disjoint sets without the asker", holders)
	}
	return nw, e, holders
}

// silence makes every peer of holders up but unreachable.
func silence(nw *simnet.Network, holders []p2p.NodeID) {
	nodes := make(map[p2p.NodeID]simnet.LinkFaults)
	for _, p := range holders {
		nodes[p] = simnet.LinkFaults{Loss: 1}
	}
	nw.SetFaults(simnet.FaultPlan{Seed: 1, Nodes: nodes})
}

// TestDiscoverAllCachedKeepsAnswersOfAFailedBatch: when one lookup of a batch
// times out the batch fails, but the list that did arrive is cached — the
// next resolution of that function costs no DHT traffic.
func TestDiscoverAllCachedKeepsAnswersOfAFailedBatch(t *testing.T) {
	nw, e, holders := ringWithTwoRoots(t)

	// d's holders are up but unreachable: its lookup waits out both timeouts.
	silence(nw, holders[1])
	failed := false
	e.discover([]string{"a", "d"}, 0, func(tb []List, ok bool) { failed = !ok && tb == nil })
	nw.Sim().RunUntilIdle()
	if !failed {
		t.Fatal("a batch with unreachable holders must report failure")
	}
	nw.SetFaults(simnet.FaultPlan{})

	routed := nw.Stats().ByType[dht.MsgRoute]
	served := false
	e.discover([]string{"a"}, 0, func(tb []List, ok bool) {
		served = ok && len(tb[0].Comps) == 1 && slices.Contains(holders[0], tb[0].Root)
	})
	if !served || nw.Stats().ByType[dht.MsgRoute] != routed {
		t.Fatalf("served from cache: %v, new dht.route messages: %d; want the answered list kept",
			served, nw.Stats().ByType[dht.MsgRoute]-routed)
	}
}

// TestDiscoverAllCachedServesAnAnswerOnArrival: a list is in the cache the
// moment its lookup is answered, not when the slowest lookup of its batch is —
// here one that waits out both timeouts — and resolutions that miss a function
// while its lookup is out share that lookup: one get, every caller answered in
// the order it asked.
func TestDiscoverAllCachedServesAnAnswerOnArrival(t *testing.T) {
	nw, e, holders := ringWithTwoRoots(t)

	silence(nw, holders[1])
	start := nw.Sim().Now()
	e.Ctr = &obs.NodeCounters{}
	var order []string
	batchFailed := false
	e.discover([]string{"a", "d"}, 0, func(_ []List, ok bool) { batchFailed = !ok })
	for _, name := range []string{"second", "third"} {
		e.discover([]string{"a"}, 0, func(tb []List, ok bool) {
			if ok && len(tb[0].Comps) == 1 && slices.Contains(holders[0], tb[0].Root) {
				order = append(order, name)
			}
		})
	}
	nw.Sim().Run(start + time.Second)
	if !slices.Equal(order, []string{"second", "third"}) || batchFailed {
		t.Fatalf("a second in: answered %v, the batch failed: %v; want the two askers of \"a\" answered in order and the batch still waiting on \"d\"", order, batchFailed)
	}
	gets := nw.Stats().ByType[dht.MsgRoute]
	served := false
	e.discover([]string{"a"}, 0, func(tb []List, ok bool) { served = ok && slices.Contains(holders[0], tb[0].Root) })
	if !served || nw.Stats().ByType[dht.MsgRoute] != gets {
		t.Fatal("\"a\" was answered but is not served from the cache while \"d\" is still out")
	}
	nw.Sim().RunUntilIdle()
	if !batchFailed {
		t.Fatal("the batch with unreachable holders never reported")
	}
	if c := e.Ctr.Snapshot(); c.DiscLookups != 2 || c.DiscJoined != 2 || c.DiscCacheHits != 1 {
		t.Fatalf("%d gets sent, %d misses joined, %d cache hits; want 2 (one a function), 2 and 1", c.DiscLookups, c.DiscJoined, c.DiscCacheHits)
	}
}

// TestHintsFollowThePattern: a probe carries the hints from its target's
// first successor on — everything downstream of the target (for b also e, the
// tail of its sibling c's branch), and nothing at all when the target is a
// sink, whichever branch of a DAG it ends.
func TestHintsFollowThePattern(t *testing.T) {
	b := fgraph.NewBuilder()
	for _, fn := range []string{"a", "b", "c", "d", "e"} {
		b.AddFunction(fn)
	}
	// a feeds b and c; b and c both feed d (a diamond); c also feeds the
	// second sink e.
	g, err := b.AddDependency(0, 1).AddDependency(0, 2).AddDependency(1, 3).AddDependency(2, 3).AddDependency(2, 4).Build()
	if err != nil {
		t.Fatal(err)
	}
	table := make([]List, g.NumFunctions())
	for i := range table {
		table[i] = List{Fn: g.Function(i), Listing: registry.Listing{Root: p2p.NodeID(100 + i)}}
	}
	all := hintsFor(g, table)
	carried := func(target int) []int {
		var fns []int
		for _, h := range hintsFrom(all, g.Successors(target)) {
			if h.Root != p2p.NodeID(100+h.Fn) {
				t.Errorf("hint for function %d names peer %d", h.Fn, h.Root)
			}
			fns = append(fns, h.Fn)
		}
		return fns
	}
	for target, want := range [][]int{{1, 2, 3, 4}, {3, 4}, {3, 4}, nil, nil} {
		if got := carried(target); !slices.Equal(got, want) {
			t.Errorf("a probe bound for function %d carries hints for %v, want %v", target, got, want)
		}
	}
}
