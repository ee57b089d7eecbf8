package dht

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/simnet"
)

func TestNextHopExcludingSkipsAvoidedEntry(t *testing.T) {
	_, nodes := ring(t, 40)
	for i := 0; i < 10; i++ {
		key := Key(fmt.Sprintf("k%d", i))
		for _, n := range nodes {
			first := n.nextHop(key)
			if first.Addr == p2p.NoNode {
				continue // local delivery: nothing to exclude
			}
			alt := n.nextHopExcluding(key, first.Addr)
			if alt.Addr == first.Addr {
				t.Fatalf("node %v key %d: excluded hop %d returned again", n.self.Addr, i, first.Addr)
			}
		}
	}
}

// TestGetRetriesViaAlternateRoute black-holes the exact link a lookup takes
// first (the node stays alive, so the liveness oracle cannot help) and
// requires the timeout retry to reach the root through a different
// routing-table entry.
func TestGetRetriesViaAlternateRoute(t *testing.T) {
	nw, nodes := ring(t, 60)
	key := Key("retry-fn")
	nodes[7].Put(key, "meta", 64)
	nw.Sim().RunUntilIdle()

	// Pick a requester that (a) forwards rather than delivering locally and
	// (b) has an alternate entry once the first hop is excluded.
	reqIdx := -1
	var h1 p2p.NodeID
	for i := range nodes {
		first := nodes[i].nextHop(key)
		if first.Addr == p2p.NoNode {
			continue
		}
		if alt := nodes[i].nextHopExcluding(key, first.Addr); alt.Addr == p2p.NoNode {
			continue
		}
		reqIdx, h1 = i, first.Addr
		break
	}
	if reqIdx == -1 {
		t.Fatal("no requester with an alternate route found")
	}

	nw.SetFaults(simnet.FaultPlan{
		Seed:  1,
		Links: map[[2]p2p.NodeID]simnet.LinkFaults{{p2p.NodeID(reqIdx), h1}: {Loss: 1}},
	})
	lost := lossFaults(nw)

	var items []any
	ok, called := false, false
	nodes[reqIdx].Get(key, 200*time.Millisecond, func(it []any, _ int, o bool) {
		called, ok, items = true, o, it
	})
	nw.Sim().RunUntilIdle()
	if !called {
		t.Fatal("callback never fired")
	}
	if !ok {
		t.Fatal("lookup failed: retry did not avoid the black-holed first hop")
	}
	if len(items) != 1 || items[0] != "meta" {
		t.Fatalf("items=%v", items)
	}
	if *lost == 0 {
		t.Fatal("fault link never exercised: test routed elsewhere")
	}
}

// lossFaults counts the messages nw's fault plane loses, by their net.fault
// events.
func lossFaults(nw *simnet.Network) *int {
	n := new(int)
	nw.SetObs(obs.TracerFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindNetFault && ev.Note == obs.FaultLoss {
			*n++
		}
	}), nil, nil)
	return n
}
