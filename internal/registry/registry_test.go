package registry

import (
	"fmt"
	"math/rand"
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

	var got []service.Component
	regs[11].Discover("upscale", time.Second, func(comps []service.Component, hops int, ok bool) {
		if !ok {
			t.Error("discover failed")
		}
		got = comps
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
	regs[0].Discover("nonexistent", time.Second, func(comps []service.Component, _ int, ok bool) {
		called = true
		if !ok || len(comps) != 0 {
			t.Errorf("comps=%v ok=%v", comps, ok)
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
	regs[20].Discover("filter", time.Second, func(comps []service.Component, _ int, ok bool) {
		if !ok || len(comps) != 1 {
			t.Errorf("want exactly 1 after dedup, got %d (ok=%v)", len(comps), ok)
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
	regs[(root+5)%60].Discover("resilient", time.Second, func(comps []service.Component, _ int, ok bool) {
		found = ok && len(comps) == 1
	})
	nw.Sim().RunUntilIdle()
	if !found {
		t.Fatal("discovery did not survive root failure")
	}
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
