package baselines_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// repeatedPairDiamond builds, on c, a diamond w → {x, y} → z whose middle
// functions both run on peer mid: their two service links to the sink's peer
// map onto one overlay pair, (mid, sink). The route of that pair shares no
// overlay link with the route of any other pair the graph reserves, so what
// admitting the graph takes off that route's bottleneck is what the pair
// alone reserves. Every component is one its peer hosts, so BCP's walk can
// commit the graph too.
func repeatedPairDiamond(t *testing.T, c *cluster.Cluster, bw float64) (g *service.Graph, mid, sink p2p.NodeID) {
	t.Helper()
	b := fgraph.NewBuilder()
	for _, f := range []string{"w", "x", "y", "z"} {
		b.AddFunction(f)
	}
	pat, err := b.AddDependency(0, 1).AddDependency(0, 2).AddDependency(1, 3).AddDependency(2, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	links := func(a, b p2p.NodeID) []int {
		p, ok := c.Overlay.Route(int(a), int(b))
		if !ok {
			return nil
		}
		return p.Links
	}
	shares := func(l, m []int) bool {
		return slices.ContainsFunc(l, func(x int) bool { return slices.Contains(m, x) })
	}
	for _, m := range c.Peers {
		if len(m.Components) < 2 || m.Components[0].Function == m.Components[1].Function {
			continue
		}
		x, y := m.Components[0], m.Components[1]
		for _, a := range c.Peers {
			for _, q := range c.Peers {
				if len(a.Components) == 0 || len(q.Components) == 0 {
					continue
				}
				w, z := a.Components[0], q.Components[0]
				fns := []string{w.Function, x.Function, y.Function, z.Function}
				slices.Sort(fns)
				if len(slices.Compact(fns)) != 4 || w.Peer == x.Peer || z.Peer == x.Peer || w.Peer == z.Peer {
					continue
				}
				var ends []p2p.NodeID // the sender and the receiver: two peers hosting none of them
				for id := p2p.NodeID(0); len(ends) < 2; id++ {
					if id != w.Peer && id != x.Peer && id != z.Peer {
						ends = append(ends, id)
					}
				}
				src, dst := ends[0], ends[1]
				shared := links(x.Peer, z.Peer)
				if len(shared) == 0 || shares(shared, links(w.Peer, x.Peer)) || shares(shared, links(z.Peer, dst)) || shares(shared, links(src, w.Peer)) {
					continue
				}
				var res qos.Resources
				res[qos.CPU] = 1
				res[qos.Memory] = 10
				req := &service.Request{ID: 9, FGraph: pat, QoSReq: qos.Unbounded(), Res: res, Bandwidth: bw,
					Source: src, Dest: dst, Budget: 1}
				g := &service.Graph{Pattern: pat, Req: req, Comps: []service.Snapshot{{Comp: w}, {Comp: x}, {Comp: y}, {Comp: z}}}
				return g, x.Peer, z.Peer
			}
		}
	}
	t.Fatal("no peer hosts two functions with a sink peer whose route is its own")
	return nil, 0, 0
}

// TestAdmitReservesARepeatedPairOnce: a diamond whose two middle components
// share a peer reserves the overlay pair from that peer to the sink's once,
// as BCP's walk does: the pair's route loses exactly one Bandwidth on
// admission and gets it back on release.
func TestAdmitReservesARepeatedPairOnce(t *testing.T) {
	const bw = 50
	c, w := testWorld(45)
	g, mid, sink := repeatedPairDiamond(t, c, bw)
	route, _ := c.Overlay.Route(int(mid), int(sink))
	before := c.Overlay.AvailBandwidth(route)
	if !baselines.Admit(w, g) {
		t.Fatal("admission failed on an idle cluster")
	}
	if got := c.Overlay.AvailBandwidth(route); got != before-bw {
		t.Errorf("route %d→%d reads %.1f kbps after admission, want %.1f − %d: the pair reserved %.0f times", mid, sink, got, before, bw, (before-got)/bw)
	}
	baselines.Release(w, g)
	if got := c.Overlay.AvailBandwidth(route); got != before {
		t.Errorf("route %d→%d reads %.1f kbps after release, want %.1f", mid, sink, got, before)
	}
}

// TestWalkAndAdmitReserveAlike: one repeated-pair graph, committed through
// BCP's reverse-path walk (Engine.Confirm) on one cluster and through
// baselines.Admit on another of the same seed, leaves every route between
// the graph's peers at the same available bandwidth on both; after Teardown
// and Release, both read what a fresh cluster of that seed reads.
func TestWalkAndAdmitReserveAlike(t *testing.T) {
	build := func() *cluster.Cluster { return cluster.New(cluster.Options{Seed: 45, Peers: 50, Catalog: catalog(5)}) }
	fresh, walked, admitted := build(), build(), build()
	g, _, _ := repeatedPairDiamond(t, walked, 50)
	peers := []p2p.NodeID{g.Req.Source, g.Req.Dest}
	for _, s := range g.Comps {
		peers = append(peers, s.Comp.Peer)
	}
	slices.Sort(peers)
	peers = slices.Compact(peers)
	avail := func(c *cluster.Cluster, a, b p2p.NodeID) float64 {
		p, _ := c.Overlay.Route(int(a), int(b))
		return c.Overlay.AvailBandwidth(p)
	}
	compare := func(what string, got, want *cluster.Cluster) {
		t.Helper()
		for _, a := range peers {
			for _, b := range peers {
				if x, y := avail(got, a, b), avail(want, a, b); a != b && x != y {
					t.Errorf("%s: route %d→%d reads %.1f kbps, want %.1f", what, a, b, x, y)
				}
			}
		}
	}

	src := walked.Peers[int(g.Req.Source)].Engine
	ok := false
	src.Confirm(g, nil, 10*time.Second, func(o bool) { ok = o })
	walked.Sim.Run(walked.Sim.Now() + 30*time.Second)
	if !ok {
		t.Fatal("the walk was refused on an idle cluster")
	}
	if !baselines.Admit(admitted.World(), g) {
		t.Fatal("admission failed on an idle cluster")
	}
	compare("walked against admitted", walked, admitted)

	src.Teardown(g)
	walked.Sim.Run(walked.Sim.Now() + 30*time.Second)
	baselines.Release(admitted.World(), g)
	compare("walked, torn down", walked, fresh)
	compare("admitted, released", admitted, fresh)
}
