package bcp_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

func req3(c *cluster.Cluster, id uint64, budget int) *service.Request {
	fns := c.FunctionsByReplicas()
	fg := fgraph.Linear(fns[0], fns[1], fns[2])
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	q := qos.Unbounded()
	q[qos.Delay] = 5000
	return &service.Request{
		ID:        id,
		FGraph:    fg,
		QoSReq:    q,
		Res:       res,
		Bandwidth: 100,
		Source:    p2p.NodeID(0),
		Dest:      p2p.NodeID(1),
		Budget:    budget,
	}
}

// compose runs one composition to completion on the virtual clock.
func compose(c *cluster.Cluster, req *service.Request) bcp.Result {
	var out bcp.Result
	done := false
	c.Peers[int(req.Source)].Engine.Compose(req, func(r bcp.Result) {
		out = r
		done = true
	})
	c.Sim.Run(c.Sim.Now() + 60*time.Second)
	if !done {
		panic("composition never completed")
	}
	return out
}

func TestComposeLinearSuccess(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8)})
	req := req3(c, 1, 24)
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	if res.Best == nil || len(res.Best.Comps) != 3 {
		t.Fatalf("best graph incomplete: %v", res.Best)
	}
	if !res.Best.QoS.Satisfies(req.QoSReq) {
		t.Fatalf("selected graph violates QoS: %v", res.Best.QoS)
	}
	// Functions assigned in order.
	for i := 0; i < 3; i++ {
		if res.Best.Comps[i].Comp.Function != req.FGraph.Function(i) {
			t.Fatalf("function %d assigned %q", i, res.Best.Comps[i].Comp.Function)
		}
	}
	// Resources are hard-committed on the chosen peers.
	for _, s := range res.Best.Comps {
		l := c.Peers[int(s.Comp.Peer)].Ledger
		if l.HardAllocated() == (qos.Resources{}) {
			t.Fatalf("peer %d has no hard allocation after setup", s.Comp.Peer)
		}
	}
	if res.SetupTime <= 0 || res.DiscoveryTime <= 0 {
		t.Fatalf("missing timing: %+v", res)
	}
	if res.DiscoveryTime > res.SetupTime {
		t.Fatal("discovery exceeds total setup time")
	}
}

func catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A' + i))
	}
	return out
}

func TestComposeImpossibleQoSFails(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 8, Peers: 50, Catalog: catalog(8)})
	req := req3(c, 2, 24)
	req.QoSReq[qos.Delay] = 0.001 // impossible
	res := compose(c, req)
	if res.Ok {
		t.Fatal("impossible QoS composed successfully")
	}
}

func TestComposeUnknownFunctionFailsFast(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 9, Peers: 40, Catalog: catalog(6)})
	req := req3(c, 3, 8)
	req.FGraph = fgraph.Linear("no-such-function")
	res := compose(c, req)
	if res.Ok {
		t.Fatal("unknown function composed")
	}
}

// TestComposeInvalidRequestRejected: a request Validate refuses — a zero
// budget, no function graph at all — fails at once, traced or not, and a
// traced engine records it as a composition of no functions that failed.
func TestComposeInvalidRequestRejected(t *testing.T) {
	for _, traced := range []bool{false, true} {
		chk, mem := obs.NewChecker(), &obs.MemSink{}
		opts := cluster.Options{Seed: 10, Peers: 40, Catalog: catalog(6)}
		if traced {
			opts.Trace = obs.TracerFunc(func(ev obs.Event) { mem.Emit(ev); chk.Add(ev) })
		}
		c := cluster.New(opts)
		noGraph := req3(c, 5, 8)
		noGraph.FGraph = nil
		for _, req := range []*service.Request{req3(c, 4, 0), noGraph} {
			called := false
			c.Peers[0].Engine.Compose(req, func(r bcp.Result) {
				called = true
				if r.Ok {
					t.Errorf("traced=%v: invalid request %d accepted", traced, req.ID)
				}
			})
			if !called {
				t.Fatalf("traced=%v: callback must fire synchronously for invalid request %d", traced, req.ID)
			}
		}
		if !traced {
			continue
		}
		starts, fails := map[uint64]int{}, map[uint64]int{}
		for _, ev := range mem.Events() {
			switch {
			case ev.Kind == obs.KindComposeStart && ev.Hops == 0:
				starts[ev.Req]++
			case ev.Kind == obs.KindComposeDone && ev.Note == "fail":
				fails[ev.Req]++
			}
		}
		for _, id := range []uint64{4, 5} {
			if starts[id] != 1 || fails[id] != 1 {
				t.Errorf("request %d traced %d starts of no functions and %d failed ends, want one each", id, starts[id], fails[id])
			}
		}
		for _, v := range chk.Finish() {
			t.Errorf("invariant: %s", v)
		}
	}
}

func TestBudgetControlsProbingOverhead(t *testing.T) {
	run := func(budget int) int64 {
		c := cluster.New(cluster.Options{Seed: 11, Peers: 60, Catalog: catalog(6)})
		compose(c, req3(c, 5, budget))
		return c.Net.Stats().ByType[bcp.MsgProbe]
	}
	small, large := run(4), run(40)
	if small == 0 || large == 0 {
		t.Fatalf("no probes recorded: small=%d large=%d", small, large)
	}
	if small >= large {
		t.Fatalf("budget did not bound probing: %d probes at β=4, %d at β=40", small, large)
	}
}

func TestComposeDAG(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 12, Peers: 70, Catalog: catalog(6)})
	fns := c.FunctionsByReplicas()
	b := fgraph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddFunction(fns[i])
	}
	b.AddDependency(0, 1).AddDependency(0, 2).AddDependency(1, 3).AddDependency(2, 3)
	fg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	req := req3(c, 6, 32)
	req.FGraph = fg
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("DAG composition failed")
	}
	if len(res.Best.Comps) != 4 {
		t.Fatalf("DAG graph has %d assignments, want 4", len(res.Best.Comps))
	}
	// The merged QoS must be at least the max over both branches' shared
	// endpoints, and links must cover all four edges plus ingress/egress.
	if len(res.Best.Links) < 5 {
		t.Fatalf("merged graph has %d links", len(res.Best.Links))
	}
}

func TestCommutationExploresMorePatterns(t *testing.T) {
	build := func(disable bool) (bcp.Result, int64) {
		cfg := bcp.DefaultConfig()
		cfg.DisableCommutation = disable
		c := cluster.New(cluster.Options{Seed: 13, Peers: 60, Catalog: catalog(5), BCP: cfg})
		fns := c.FunctionsByReplicas()
		b := fgraph.NewBuilder()
		for i := 0; i < 3; i++ {
			b.AddFunction(fns[i])
		}
		b.AddDependency(0, 1).AddDependency(1, 2)
		b.AddCommutation(1, 2)
		fg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		req := req3(c, 7, 32)
		req.FGraph = fg
		res := compose(c, req)
		return res, c.Net.Stats().ByType[bcp.MsgProbe]
	}
	resOn, probesOn := build(false)
	resOff, probesOff := build(true)
	if !resOn.Ok || !resOff.Ok {
		t.Fatalf("composition failed: on=%v off=%v", resOn.Ok, resOff.Ok)
	}
	// Commutation exploration must produce at least one graph using the
	// exchanged order among best+backups, or at minimum emit probes for the
	// second pattern (workloads vary); with it disabled, every returned
	// pattern must be the original order.
	for _, g := range append([]*service.Graph{resOff.Best}, resOff.Backups...) {
		if s := g.Pattern.Successors(0); len(s) != 1 || s[0] != 1 {
			t.Fatal("commutation disabled but a swapped pattern was returned")
		}
	}
	if probesOn <= probesOff/2 {
		t.Fatalf("pattern exploration emitted suspiciously few probes: on=%d off=%d", probesOn, probesOff)
	}
}

func TestSoftReservationPreventsConflictingAdmission(t *testing.T) {
	// A cluster where one function's only component sits on a peer with
	// capacity for exactly one session: of two concurrent requests, exactly
	// one must be admitted.
	var cap qos.Resources
	cap[qos.CPU] = 1
	cap[qos.Memory] = 10
	c := cluster.New(cluster.Options{
		Seed: 14, Peers: 30, Catalog: catalog(3),
		MinComps: 1, MaxComps: 1, Capacity: cap,
	})
	fns := c.FunctionsByReplicas()
	// Pick the function with the FEWEST replicas to maximize contention.
	rare := fns[len(fns)-1]
	fg := fgraph.Linear(rare)
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	q := qos.Unbounded()
	q[qos.Delay] = 5000

	mk := func(id uint64, src, dst int) *service.Request {
		return &service.Request{
			ID: id, FGraph: fg, QoSReq: q, Res: res, Bandwidth: 10,
			Source: p2p.NodeID(src), Dest: p2p.NodeID(dst), Budget: 8,
		}
	}
	okCount := 0
	done := 0
	rarePeers := map[p2p.NodeID]bool{}
	for _, comp := range c.ComponentsFor(rare) {
		rarePeers[comp.Peer] = true
	}
	// Choose senders that do not host the rare function themselves.
	var senders []int
	for i := range c.Peers {
		if !rarePeers[p2p.NodeID(i)] && len(senders) < 2 {
			senders = append(senders, i)
		}
	}
	if c.Replicas(rare) != 1 {
		t.Skipf("rare function has %d replicas; need 1", c.Replicas(rare))
	}
	for k, s := range senders {
		c.Peers[s].Engine.Compose(mk(uint64(100+k), s, (s+1)%30), func(r bcp.Result) {
			done++
			if r.Ok {
				okCount++
			}
		})
	}
	c.Sim.Run(c.Sim.Now() + 60*time.Second)
	if done != 2 {
		t.Fatalf("only %d compositions completed", done)
	}
	if okCount != 1 {
		t.Fatalf("admitted %d sessions onto capacity for 1", okCount)
	}
}

func TestTeardownReleasesEverything(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 15, Peers: 50, Catalog: catalog(6)})
	req := req3(c, 8, 24)
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	c.Peers[int(req.Source)].Engine.Teardown(res.Best)
	c.Sim.Run(c.Sim.Now() + 10*time.Second)

	for i, p := range c.Peers {
		if got := p.Ledger.HardAllocated(); got != (qos.Resources{}) {
			t.Fatalf("peer %d still holds %v after teardown", i, got)
		}
		if got := p.Ledger.SoftAllocated(); got != (qos.Resources{}) {
			t.Fatalf("peer %d still soft-holds %v after teardown", i, got)
		}
	}
}

func TestSoftReservationsExpire(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 16, Peers: 50, Catalog: catalog(6)})
	req := req3(c, 9, 24)
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	// Long after setup, only the committed session's hard allocations
	// remain; every probe-time soft reservation has expired.
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	for i, p := range c.Peers {
		if got := p.Ledger.SoftAllocated(); got != (qos.Resources{}) {
			t.Fatalf("peer %d leaks soft reservation %v", i, got)
		}
	}
}

func TestBackupsQualifiedAndDistinct(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 17, Peers: 80, Catalog: catalog(5)})
	req := req3(c, 10, 60)
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	if len(res.Backups) == 0 {
		t.Fatal("no backups returned despite generous budget")
	}
	if len(res.Backups) > bcp.MaxBackups {
		t.Fatalf("%d backups exceed cap %d", len(res.Backups), bcp.MaxBackups)
	}
	seen := map[string]bool{res.Best.Key(): true}
	for _, b := range res.Backups {
		if !b.Qualified(req) {
			t.Fatal("unqualified backup returned")
		}
		if seen[b.Key()] {
			t.Fatal("duplicate backup graph")
		}
		seen[b.Key()] = true
	}
	// Best-first ordering by cost.
	prev := res.Best.Cost(req)
	for _, b := range res.Backups {
		cost := b.Cost(req)
		if cost+1e-9 < prev {
			t.Fatal("backups not sorted by cost")
		}
		prev = cost
	}
}

func TestComposeDeterministic(t *testing.T) {
	run := func() string {
		c := cluster.New(cluster.Options{Seed: 18, Peers: 60, Catalog: catalog(6)})
		res := compose(c, req3(c, 11, 24))
		if !res.Ok {
			return ""
		}
		return res.Best.Key()
	}
	k1, k2 := run(), run()
	if k1 == "" || k1 != k2 {
		t.Fatalf("composition not deterministic: %q vs %q", k1, k2)
	}
}

func TestSelectedGraphHasFiniteCost(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 19, Peers: 60, Catalog: catalog(6)})
	req := req3(c, 12, 24)
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	if cost := res.Best.Cost(req); math.IsInf(cost, 1) || cost <= 0 {
		t.Fatalf("cost=%v", cost)
	}
}

func TestGiveUpTimeoutFiresWhenDestDead(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 20, Peers: 50, Catalog: catalog(6)})
	req := req3(c, 13, 16)
	c.Net.Fail(req.Dest)
	res := compose(c, req)
	if res.Ok {
		t.Fatal("composed toward dead destination")
	}
}

// TestLossRequirementEnforced exercises the multiplicative-metric path: a
// loss-rate requirement below the components' combined loss must fail,
// while a generous one passes. Loss composes additively in log space
// (qos.LossToAdditive).
func TestLossRequirementEnforced(t *testing.T) {
	build := func() *cluster.Cluster {
		return cluster.New(cluster.Options{
			Seed: 21, Peers: 60, Catalog: catalog(6),
			QpLossMax: 0.02, // each component loses up to 2%
		})
	}
	c := build()
	req := req3(c, 1, 24)
	req.QoSReq[qos.Loss] = qos.LossToAdditive(0.5) // generous
	if res := compose(c, req); !res.Ok {
		t.Fatal("generous loss bound failed")
	} else {
		if got := qos.AdditiveToLoss(res.Best.QoS[qos.Loss]); got <= 0 || got >= 0.1 {
			t.Fatalf("accumulated loss %v implausible", got)
		}
	}

	c2 := build()
	req2 := req3(c2, 2, 24)
	req2.QoSReq[qos.Loss] = qos.LossToAdditive(1e-9) // unsatisfiable
	if res := compose(c2, req2); res.Ok {
		t.Fatal("unsatisfiable loss bound composed")
	}
}

// TestDataPlaneLatencyMatchesQoSEstimate streams frames through a composed
// session and compares the measured end-to-end data-plane latency against
// the QoS estimate the probes accumulated. For a linear graph over a static
// network they should agree closely: the estimate sums the same link
// latencies and component service delays the ADUs actually experience.
func TestDataPlaneLatencyMatchesQoSEstimate(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 22, Peers: 60, Catalog: catalog(6)})
	req := req3(c, 1, 24)
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	estimate := res.Best.QoS[qos.Delay] // ms

	var measured []float64
	dest := c.Peers[int(req.Dest)]
	dest.Media.OnDeliverADU(func(adu media.ADU, now time.Duration) {
		measured = append(measured, float64(adu.Latency(now))/float64(time.Millisecond))
	})
	src := c.Peers[int(req.Source)].Media
	for i := 0; i < 5; i++ {
		if err := src.SendFrame(res.Best, media.NewFrame(i, 320, 240)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if len(measured) != 5 {
		t.Fatalf("delivered %d/5 frames", len(measured))
	}
	for _, m := range measured {
		// The estimate uses overlay-path latencies for service links while
		// ADUs travel direct peer-to-peer IP latencies, so the measurement
		// can be slightly below the estimate; it must never exceed it by
		// much, and must be within 30% overall.
		if m > estimate*1.05+1 || m < estimate*0.5 {
			t.Fatalf("measured %.1fms vs estimated %.1fms", m, estimate)
		}
	}
}
