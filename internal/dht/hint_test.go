package dht

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/simnet"
)

// lookup is the outcome of one GetSpan run to completion.
type lookup struct {
	items []any
	base  int
	from  p2p.NodeID
	hops  int
	ok    bool
}

// getVia runs one lookup of key from n with the given first-hop hint and
// fails the test if the callback does not fire exactly once.
func getVia(t *testing.T, nw *simnet.Network, n *Node, key ID, via p2p.NodeID) lookup {
	t.Helper()
	return getHeld(t, nw, n, key, via, 0)
}

// getHeld is getVia by a requester that says it holds held items of via's.
func getHeld(t *testing.T, nw *simnet.Network, n *Node, key ID, via p2p.NodeID, held int) lookup {
	t.Helper()
	var out lookup
	calls := 0
	n.GetSpan(key, 0, via, held, time.Second, func(items []any, base int, from p2p.NodeID, hops int, ok bool) {
		out = lookup{items, base, from, hops, ok}
		calls++
	})
	nw.Sim().RunUntilIdle()
	if calls != 1 {
		t.Fatalf("lookup from %d via %d called back %d times", n.Addr(), via, calls)
	}
	return out
}

// TestHintedGetEqualsUnhintedGet: on a ring with a random tenth of the nodes
// down, a first-hop hint never changes what a lookup returns, only how far
// it travels. A hint naming the peer that answers takes exactly one hop; a
// dead, self or absent hint is today's route hop for hop; any other live
// peer costs the hand-over plus that peer's own route.
func TestHintedGetEqualsUnhintedGet(t *testing.T) {
	const n = 400
	nw, nodes := ring(t, n)
	rng := rand.New(rand.NewSource(21))
	keys := make([]ID, 40)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("fn-%d", i))
		for r := 0; r < 3; r++ {
			nodes[rng.Intn(n)].Put(keys[i], fmt.Sprintf("meta-%d.%d", i, r), 96)
		}
	}
	nw.Sim().RunUntilIdle()
	var live, dead []p2p.NodeID
	for _, i := range rng.Perm(n) {
		if len(dead) < n/10 {
			nw.Fail(p2p.NodeID(i))
			dead = append(dead, p2p.NodeID(i))
		} else {
			live = append(live, p2p.NodeID(i))
		}
	}

	for _, key := range keys {
		for trial := 0; trial < 4; trial++ {
			src := nodes[live[rng.Intn(len(live))]]
			plain := getVia(t, nw, src, key, p2p.NoNode)
			if !plain.ok || len(plain.items) != 3 {
				t.Fatalf("unhinted lookup: ok=%v items=%v", plain.ok, plain.items)
			}
			other := live[rng.Intn(len(live))]
			cases := []struct {
				name     string
				via      p2p.NodeID
				wantHops int
			}{
				{"root", plain.from, 1},
				{"live non-root", other, 1 + getVia(t, nw, nodes[other], key, p2p.NoNode).hops},
				{"dead", dead[rng.Intn(len(dead))], plain.hops},
				{"self", src.Addr(), plain.hops},
				{"none", p2p.NoNode, plain.hops},
			}
			for _, c := range cases {
				if c.via == src.Addr() {
					c.wantHops = plain.hops // a hint naming the asker is no hint
				}
				got := getVia(t, nw, src, key, c.via)
				if got.ok != plain.ok || !slices.Equal(got.items, plain.items) || got.from != plain.from {
					t.Fatalf("%s hint %d from %d: got %v ok=%v from %d, unhinted %v ok=%v from %d",
						c.name, c.via, src.Addr(), got.items, got.ok, got.from, plain.items, plain.ok, plain.from)
				}
				if got.hops != c.wantHops {
					t.Fatalf("%s hint %d from %d: %d hops, want %d (unhinted %d)",
						c.name, c.via, src.Addr(), got.hops, c.wantHops, plain.hops)
				}
			}
		}
	}
}

// TestHintedGetRetriesAroundSilentHint: a hinted peer that is up but never
// sees the get (the link to it black-holed) costs one timeout; the existing
// retry then routes around it like around any swallowed first hop.
func TestHintedGetRetriesAroundSilentHint(t *testing.T) {
	nw, nodes := ring(t, 400)
	key := Key("hinted-retry-fn")
	nodes[7].Put(key, "meta", 64)
	nw.Sim().RunUntilIdle()
	// A requester at least two hops from the root: the retry has to find a
	// route whose first hop is not the hinted peer.
	root := getVia(t, nw, nodes[0], key, p2p.NoNode).from
	i := slices.IndexFunc(nodes, func(n *Node) bool {
		return n.Addr() != root && n.nextHop(key).Addr != root
	})
	if i < 0 {
		t.Fatal("every node is the root's neighbour")
	}
	src := nodes[i]
	nw.SetFaults(simnet.FaultPlan{
		Seed:  1,
		Links: map[[2]p2p.NodeID]simnet.LinkFaults{{src.Addr(), root}: {Loss: 1}},
	})
	start := nw.Sim().Now()
	var took time.Duration
	var got lookup
	src.GetSpan(key, 0, root, 0, 200*time.Millisecond, func(items []any, base int, from p2p.NodeID, hops int, ok bool) {
		got, took = lookup{items, base, from, hops, ok}, nw.Sim().Now()-start
	})
	nw.Sim().RunUntilIdle()
	if !got.ok || len(got.items) != 1 || got.from != root {
		t.Fatalf("lookup after a swallowed hint: %+v", got)
	}
	if nw.Stats().Faulted != 1 {
		t.Fatalf("%d messages died on the black-holed link, want the one hinted get", nw.Stats().Faulted)
	}
	if took < 200*time.Millisecond || took >= 400*time.Millisecond {
		t.Fatalf("resolved after %v: want one timeout, then the retry", took)
	}
}

// TestHeldItemsAreNotSentAgain: the peer a requester names as the one whose
// first held items it still has sends the rest — nothing when nothing is new —
// iff it is that peer and has that many; a requester naming another peer,
// claiming more than the store holds, or re-routed by the retry gets them all.
func TestHeldItemsAreNotSentAgain(t *testing.T) {
	nw, nodes := ring(t, 400)
	key := Key("held-fn")
	for i := 0; i < 5; i++ {
		nodes[7+i].Put(key, fmt.Sprintf("meta-%d", i), ItemSize)
	}
	nw.Sim().RunUntilIdle()
	all := getVia(t, nw, nodes[0], key, p2p.NoNode)
	root := all.from
	i := slices.IndexFunc(nodes, func(n *Node) bool {
		return n.Addr() != root && n.nextHop(key).Addr != root
	})
	src, other := nodes[i], nodes[i].nextHop(key).Addr
	for _, c := range []struct {
		name      string
		via       p2p.NodeID
		held      int
		wantBase  int
		wantBytes int64 // of the response
	}{
		{"three held", root, 3, 3, 64 + 2*ItemSize},
		{"all held", root, 5, 5, 64},
		{"more than stored", root, 6, 0, 64 + 5*ItemSize},
		{"another peer remembered", other, 3, 0, 64 + 5*ItemSize},
		{"nothing held", root, 0, 0, 64 + 5*ItemSize},
	} {
		before := nw.Stats().BytesByType[MsgGetResp]
		got := getHeld(t, nw, src, key, c.via, c.held)
		if !got.ok || got.from != root || got.base != c.wantBase || !slices.Equal(got.items, all.items[c.wantBase:]) {
			t.Errorf("%s: %+v, want base %d and the items after it", c.name, got, c.wantBase)
		}
		if sent := nw.Stats().BytesByType[MsgGetResp] - before; sent != c.wantBytes {
			t.Errorf("%s: response of %d bytes, want %d", c.name, sent, c.wantBytes)
		}
	}

	nw.SetFaults(simnet.FaultPlan{
		Seed:  1,
		Links: map[[2]p2p.NodeID]simnet.LinkFaults{{src.Addr(), root}: {Loss: 1}},
	})
	if got := getHeld(t, nw, src, key, root, 3); !got.ok || got.from != root || got.base != 0 || len(got.items) != 5 {
		t.Fatalf("after the first attempt was lost: %+v, want the root's whole list", got)
	}
}

// TestUnhintedGetAllocs pins what a plain Get costs end to end on the
// simulator (request record, timeout timer, routed hops, reply): the hint
// plumbing must not add an object to the path trust and the benchmark's
// scale workload use.
func TestUnhintedGetAllocs(t *testing.T) {
	nw, nodes := ring(t, 60)
	key := Key("alloc-fn")
	nodes[7].Put(key, "meta", 64)
	nw.Sim().RunUntilIdle()
	cb := func([]any, int, bool) {}
	run := func() {
		nodes[11].Get(key, time.Second, cb)
		nw.Sim().RunUntilIdle()
	}
	run()
	if got := testing.AllocsPerRun(200, run); got > unhintedGetAllocs {
		t.Fatalf("an unhinted Get allocates %.1f objects, want at most %d", got, unhintedGetAllocs)
	}
}

// unhintedGetAllocs is TestUnhintedGetAllocs' measurement at the commit
// before hints existed.
const unhintedGetAllocs = 6
