package registry

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/simnet"
)

func cluster(t *testing.T, n int) (*simnet.Network, []*Registry) {
	t.Helper()
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(5*time.Millisecond), rand.New(rand.NewSource(1)))
	nodes := make([]*dht.Node, n)
	regs := make([]*Registry, n)
	for i := 0; i < n; i++ {
		nodes[i] = dht.New(nw.AddNode(p2p.NodeID(i)), nw.Alive)
		regs[i] = New(nodes[i])
	}
	dht.Build(nodes)
	return nw, regs
}

func mkComp(peer int, fn string, idx int) service.Component {
	var res qos.Resources
	res[qos.CPU] = 1
	return service.Component{
		ID:       fmt.Sprintf("p%d/%s.%d", peer, fn, idx),
		Function: fn,
		Peer:     p2p.NodeID(peer),
		Res:      res,
	}
}

func TestRegisterDiscover(t *testing.T) {
	nw, regs := cluster(t, 40)
	// Three duplicated components for "upscale" on different peers.
	for i, p := range []int{3, 17, 29} {
		regs[p].Register(mkComp(p, "upscale", i))
	}
	nw.Sim().RunUntilIdle()

	var got []*service.Component
	discover(regs[11], "upscale", Listing{Root: p2p.NoNode}, time.Second, func(l Listing, ok bool) {
		if !ok {
			t.Error("discover failed")
		}
		got = l.Comps
	})
	nw.Sim().RunUntilIdle()
	if len(got) != 3 {
		t.Fatalf("discovered %d duplicates, want 3", len(got))
	}
	peers := map[p2p.NodeID]bool{}
	for _, c := range got {
		if c.Function != "upscale" {
			t.Fatalf("wrong function %q", c.Function)
		}
		peers[c.Peer] = true
	}
	if len(peers) != 3 {
		t.Fatal("duplicate list lost a peer")
	}
}

func TestDiscoverUnknownFunctionEmpty(t *testing.T) {
	nw, regs := cluster(t, 20)
	called := false
	discover(regs[0], "nonexistent", Listing{Root: p2p.NoNode}, time.Second, func(l Listing, ok bool) {
		called = true
		if !ok || len(l.Comps) != 0 {
			t.Errorf("comps=%v ok=%v", l.Comps, ok)
		}
	})
	nw.Sim().RunUntilIdle()
	if !called {
		t.Fatal("callback never fired")
	}
}

func TestDiscoverDeduplicatesReplicaCopies(t *testing.T) {
	nw, regs := cluster(t, 40)
	c := mkComp(5, "filter", 0)
	regs[5].Register(c)
	regs[5].Register(c) // double registration
	nw.Sim().RunUntilIdle()
	discover(regs[20], "filter", Listing{Root: p2p.NoNode}, time.Second, func(l Listing, ok bool) {
		if !ok || len(l.Comps) != 1 {
			t.Errorf("want exactly 1 after dedup, got %d (ok=%v)", len(l.Comps), ok)
		}
	})
	nw.Sim().RunUntilIdle()
}

func TestDiscoverSurvivesRootFailure(t *testing.T) {
	nw, regs := cluster(t, 60)
	regs[7].Register(mkComp(7, "resilient", 0))
	nw.Sim().RunUntilIdle()

	// Kill the root of the key.
	key := FunctionKey("resilient")
	root := -1
	for i, r := range regs {
		if r.DHT().StoredUnder(key) > 0 && (root == -1 || dht.Closer(key, r.DHT().Self(), regs[root].DHT().Self())) {
			root = i
		}
	}
	if root == -1 {
		t.Fatal("no root stored the component")
	}
	nw.Fail(p2p.NodeID(root))

	found := false
	discover(regs[(root+5)%60], "resilient", Listing{Root: p2p.NoNode}, time.Second, func(l Listing, ok bool) {
		found = ok && len(l.Comps) == 1
	})
	nw.Sim().RunUntilIdle()
	if !found {
		t.Fatal("discovery did not survive root failure")
	}
}

// discover runs one lookup of function fn from r by an asker holding known,
// and hands cb the listing it answers.
func discover(r *Registry, fn string, known Listing, timeout time.Duration, cb func(l Listing, ok bool)) {
	r.Discover(FunctionKey(fn), 0, known, timeout, func(a dht.Answer) { cb(Answered(known.Comps, a), a.OK) })
}

func TestFunctionKeyStable(t *testing.T) {
	if FunctionKey("x") != FunctionKey("x") {
		t.Fatal("unstable function key")
	}
	if FunctionKey("x") == FunctionKey("y") {
		t.Fatal("distinct functions collide")
	}
	// Function keys and node IDs live in separate namespaces.
	if FunctionKey("node:0") == dht.FromNode(0) {
		t.Fatal("function key collides with node id namespace")
	}
}

// TestListingsShareTheRegisteredRecord: a listed component is the record
// Register stored, not a copy of it. Two peers' answers for one function point
// at the answering store's records; a delta refresh keeps the pointers the
// asker holds and appends the store's new ones; and a component registered
// again, as after a rejoin, is listed once, as its first record.
func TestListingsShareTheRegisteredRecord(t *testing.T) {
	nw, regs := cluster(t, 40)
	for i := 0; i < 4; i++ {
		regs[i].Register(mkComp(i, "f", i))
	}
	nw.Sim().RunUntilIdle()
	// stored returns the records under f as peer id's own store holds them.
	stored := func(id p2p.NodeID) []*service.Component {
		var out []*service.Component
		regs[id].DHT().Get(FunctionKey("f"), time.Second, func(items []any, _ int, _ bool) {
			for _, it := range items {
				out = append(out, it.(*service.Component))
			}
		})
		nw.Sim().RunUntilIdle()
		return out
	}
	lookup := func(r *Registry, known Listing) Listing {
		var got Listing
		discover(r, "f", known, time.Second, func(l Listing, ok bool) {
			if !ok {
				t.Fatalf("lookup holding %d of peer %d's items failed", known.Held, known.Root)
			}
			got = l
		})
		nw.Sim().RunUntilIdle()
		return got
	}

	a, b := lookup(regs[11], Listing{Root: p2p.NoNode}), lookup(regs[23], Listing{Root: p2p.NoNode})
	for _, l := range []Listing{a, b} {
		if recs := stored(l.Root); len(recs) != 4 || !slices.Equal(l.Comps, recs) {
			t.Fatalf("peer %d answered %v, not its stored records %v", l.Root, l.Comps, recs)
		}
	}
	if !slices.Equal(a.Comps, b.Comps) {
		t.Fatalf("two askers hold different records: %v and %v", a.Comps, b.Comps)
	}

	regs[4].Register(mkComp(4, "f", 4))
	regs[0].Register(mkComp(0, "f", 0)) // registered again, as after a rejoin
	nw.Sim().RunUntilIdle()
	delta := lookup(regs[11], a)
	recs := stored(delta.Root)
	if delta.Root != a.Root || delta.Held != 6 || len(recs) != 6 {
		t.Fatalf("refresh answered by %d holding %d (store %d), want %d holding 6", delta.Root, delta.Held, len(recs), a.Root)
	}
	if want := append(slices.Clip(a.Comps), recs[4]); !slices.Equal(delta.Comps, want) {
		t.Fatalf("refresh listed %v, want the %d held records then the new one: %v", delta.Comps, len(a.Comps), want)
	}
	if recs[5].ID != recs[0].ID || recs[5] == recs[0] || slices.Contains(delta.Comps, recs[5]) {
		t.Fatalf("component %s registered again: stored %p and %p, listed %v", recs[0].ID, recs[0], recs[5], delta.Comps)
	}
	if full := lookup(regs[23], Listing{Root: p2p.NoNode}); !slices.Equal(full.Comps, delta.Comps) {
		t.Fatalf("full lookup listed %v, the refresh %v", full.Comps, delta.Comps)
	}
	t.Logf("peers 11 and 23 list the %d records peers %d and %d store; a refresh from %d held kept them and appended 1; %s, stored twice, is listed once as its first record",
		len(a.Comps), a.Root, b.Root, a.Held, recs[0].ID)
}
