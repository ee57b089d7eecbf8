package baselines_test

import (
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

func catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A' + i))
	}
	return out
}

func testWorld(seed int64) (*cluster.Cluster, baselines.World) {
	c := cluster.New(cluster.Options{Seed: seed, Peers: 50, Catalog: catalog(5)})
	return c, c.World()
}

func mkReq(c *cluster.Cluster, id uint64, nf int) *service.Request {
	fns := c.FunctionsByReplicas()
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	q := qos.Unbounded()
	q[qos.Delay] = 5000
	return &service.Request{
		ID: id, FGraph: fgraph.Linear(fns[:nf]...), QoSReq: q, Res: res,
		Bandwidth: 50, Source: 0, Dest: 1, Budget: 1,
	}
}

func TestOptimalFindsQualified(t *testing.T) {
	c, w := testWorld(40)
	req := mkReq(c, 1, 3)
	res := baselines.Optimal(w, req, baselines.MinCost)
	if res.Best == nil {
		t.Fatal("optimal found nothing")
	}
	if !res.Best.Qualified(req) {
		t.Fatal("optimal best not qualified")
	}
	if res.Examined == 0 {
		t.Fatal("no candidates examined")
	}
	// Examined must equal the product of replica counts.
	want := 1
	for i := 0; i < 3; i++ {
		want *= c.Replicas(req.FGraph.Function(i))
	}
	if res.Examined != want {
		t.Fatalf("examined %d, want %d", res.Examined, want)
	}
	// Best must truly be minimal cost among qualified.
	for _, g := range res.Qualified {
		if g.Cost(req)+1e-9 < res.Best.Cost(req) {
			t.Fatal("a qualified graph beats the reported best")
		}
	}
}

func TestOptimalMinDelayObjective(t *testing.T) {
	c, w := testWorld(41)
	req := mkReq(c, 2, 3)
	res := baselines.Optimal(w, req, baselines.MinDelay)
	if res.Best == nil {
		t.Fatal("optimal found nothing")
	}
	for _, g := range res.Qualified {
		if g.QoS[qos.Delay]+1e-9 < res.Best.QoS[qos.Delay] {
			t.Fatal("a qualified graph has lower delay than the best")
		}
	}
}

func TestOptimalSkipsDeadPeers(t *testing.T) {
	c, w := testWorld(42)
	req := mkReq(c, 3, 2)
	before := baselines.Optimal(w, req, baselines.MinCost)
	if before.Best == nil {
		t.Skip("nothing composable")
	}
	// Kill every peer hosting the best graph's components; optimal must
	// avoid them afterwards.
	for _, s := range before.Best.Comps {
		c.Net.Fail(s.Comp.Peer)
	}
	after := baselines.Optimal(w, req, baselines.MinCost)
	for _, g := range after.Qualified {
		for _, s := range g.Comps {
			if !c.Net.Alive(s.Comp.Peer) {
				t.Fatal("optimal used a dead peer")
			}
		}
	}
	if after.Examined >= before.Examined {
		t.Fatal("killing peers did not shrink the search space")
	}
}

func TestRandomIgnoresQoS(t *testing.T) {
	c, w := testWorld(43)
	req := mkReq(c, 4, 3)
	req.QoSReq[qos.Delay] = 0.001 // impossible, but random doesn't care
	g, ok := baselines.Random(w, req, c.Rng.Intn)
	if !ok || g == nil {
		t.Fatal("random failed to assemble a graph")
	}
	if g.Qualified(req) {
		t.Fatal("graph qualified under impossible QoS")
	}
	if len(g.Comps) != 3 {
		t.Fatalf("assignments=%d", len(g.Comps))
	}
}

func TestStaticDeterministic(t *testing.T) {
	c, w := testWorld(44)
	req := mkReq(c, 5, 3)
	g1, ok1 := baselines.Static(w, req)
	g2, ok2 := baselines.Static(w, req)
	if !ok1 || !ok2 {
		t.Fatal("static failed")
	}
	if g1.Key() != g2.Key() {
		t.Fatal("static selection not deterministic")
	}
	// Per function, static picks the lexicographically smallest live ID.
	for i := 0; i < 3; i++ {
		for _, cand := range c.ComponentsFor(req.FGraph.Function(i)) {
			if cand.ID < g1.Comps[i].Comp.ID {
				t.Fatalf("static skipped smaller ID %s", cand.ID)
			}
		}
	}
}

func TestAdmitCommitsAndReleaseRestores(t *testing.T) {
	c, w := testWorld(45)
	req := mkReq(c, 6, 3)
	res := baselines.Optimal(w, req, baselines.MinCost)
	if res.Best == nil {
		t.Fatal("nothing to admit")
	}
	if !baselines.Admit(w, res.Best) {
		t.Fatal("admission failed on an idle cluster")
	}
	committed := 0
	for _, p := range c.Peers {
		if p.Ledger.HardAllocated() != (qos.Resources{}) {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("no peer shows a commitment")
	}
	baselines.Release(w, res.Best)
	for i, p := range c.Peers {
		if p.Ledger.HardAllocated() != (qos.Resources{}) {
			t.Fatalf("peer %d still committed after release", i)
		}
	}
}

func TestAdmitRollsBackOnFailure(t *testing.T) {
	var tiny qos.Resources
	tiny[qos.CPU] = 1
	tiny[qos.Memory] = 10
	c := cluster.New(cluster.Options{
		Seed: 46, Peers: 40, Catalog: catalog(4), Capacity: tiny,
	})
	w := c.World()
	req := mkReq(c, 7, 2)
	res := baselines.Optimal(w, req, baselines.MinCost)
	if res.Best == nil {
		t.Skip("nothing composable")
	}
	if !baselines.Admit(w, res.Best) {
		t.Fatal("first admission failed")
	}
	// A second admission of the same graph must fail (capacity exhausted)
	// and leave allocations unchanged.
	snapshot := make([]qos.Resources, len(c.Peers))
	for i, p := range c.Peers {
		snapshot[i] = p.Ledger.HardAllocated()
	}
	if baselines.Admit(w, res.Best) {
		t.Fatal("overcommit admitted")
	}
	for i, p := range c.Peers {
		if p.Ledger.HardAllocated() != snapshot[i] {
			t.Fatalf("failed admission leaked on peer %d", i)
		}
	}
}

func TestOptimalProbeCount(t *testing.T) {
	c, w := testWorld(47)
	req := mkReq(c, 8, 3)
	n := baselines.OptimalProbeCount(w, req)
	want := 1
	for i := 0; i < 3; i++ {
		want *= c.Replicas(req.FGraph.Function(i))
	}
	if n != want {
		t.Fatalf("probe count %d, want %d", n, want)
	}
	req.FGraph = fgraph.Linear("no-such-fn")
	if baselines.OptimalProbeCount(w, req) != 0 {
		t.Fatal("unknown function should yield 0 probes")
	}
}

func TestCentralizedOverheadPerPeriod(t *testing.T) {
	if baselines.CentralizedOverheadPerPeriod(1000) != 1000*999 {
		t.Fatal("global-view overhead must replicate every peer's state to every other peer")
	}
}

func TestBuildGraphRejectsIncompatibleFormats(t *testing.T) {
	c, w := testWorld(48)
	req := mkReq(c, 9, 2)
	fns := req.FGraph
	a := c.ComponentsFor(fns.Function(0))[0]
	b := c.ComponentsFor(fns.Function(1))[0]
	a.OutFormat = 1
	b.InFormat = 2
	if _, ok := baselines.BuildGraph(w, req, fns, []service.Component{a, b}); ok {
		t.Fatal("incompatible formats accepted")
	}
	b.InFormat = 1
	if _, ok := baselines.BuildGraph(w, req, fns, []service.Component{a, b}); !ok {
		t.Fatal("compatible formats rejected")
	}
}

func TestBuildGraphQoSIsFinite(t *testing.T) {
	c, w := testWorld(49)
	req := mkReq(c, 10, 3)
	g, ok := baselines.Random(w, req, c.Rng.Intn)
	if !ok {
		t.Fatal("random failed")
	}
	if math.IsInf(g.QoS[qos.Delay], 0) || g.QoS[qos.Delay] <= 0 {
		t.Fatalf("delay=%v", g.QoS[qos.Delay])
	}
	_ = p2p.NodeID(0)
}
