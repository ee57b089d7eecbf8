package cluster_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/federation"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/registry"
	"repro/internal/service"
)

func catalog(n int) []string { return cluster.Catalog(n) }

func TestClusterDefaults(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 5})
	if len(c.Peers) != 60 {
		t.Fatalf("peers=%d", len(c.Peers))
	}
	// Every peer hosts at least one registered component.
	for i, p := range c.Peers {
		if len(p.Components) == 0 {
			t.Fatalf("peer %d hosts nothing", i)
		}
		for _, comp := range p.Components {
			if comp.Peer != p2p.NodeID(i) {
				t.Fatalf("component %s claims wrong peer", comp.ID)
			}
		}
	}
	// Registrations are discoverable.
	fns := c.FunctionsByReplicas()
	if len(fns) == 0 {
		t.Fatal("no functions deployed")
	}
	found := false
	c.Peers[0].Registry.Discover(registry.FunctionKey(fns[0]), 0, registry.Listing{Root: p2p.NoNode}, time.Second, func(a dht.Answer) {
		found = a.OK && len(registry.Answered(nil, a).Comps) == c.Replicas(fns[0])
	})
	c.Sim.RunUntilIdle()
	if !found {
		t.Fatal("discovery returned fewer components than deployed")
	}
}

func TestClusterDeterministicAcrossBuilds(t *testing.T) {
	a := cluster.New(cluster.Options{Seed: 6, Peers: 40})
	b := cluster.New(cluster.Options{Seed: 6, Peers: 40})
	for i := range a.Peers {
		if len(a.Peers[i].Components) != len(b.Peers[i].Components) {
			t.Fatalf("peer %d component counts differ", i)
		}
		for k := range a.Peers[i].Components {
			if a.Peers[i].Components[k].ID != b.Peers[i].Components[k].ID {
				t.Fatalf("peer %d component %d differs", i, k)
			}
		}
	}
}

// TestChurnRecoveryIntegration runs the whole stack together: a session
// with proactive recovery under repeated failures of one specific peer it
// is composed over.
func TestChurnRecoveryIntegration(t *testing.T) {
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{
		Seed: 7, Peers: 70, Catalog: catalog(4),
		Recovery: &rc,
	})
	fns := c.FunctionsByReplicas()
	q := qos.Unbounded()
	q[qos.Delay] = 8000
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	src := 0
	mk := func(id uint64) *service.Request {
		return &service.Request{
			ID: id, FGraph: fgraph.Linear(fns[0], fns[1]), QoSReq: q, Res: res,
			Bandwidth: 10, FailReq: 0.02,
			Source: p2p.NodeID(src), Dest: 1, Budget: 40,
		}
	}

	// Establish a session; find a component peer, repeatedly crash it and
	// bring it back so the session keeps recovering away from it.
	var flaky p2p.NodeID = p2p.NoNode
	sp := c.Peers[src]
	sp.Engine.Compose(mk(1), func(r bcp.Result) {
		if !r.Ok {
			t.Fatal("composition failed")
		}
		sp.Recovery.Establish(mk(1), r)
		for _, s := range r.Best.Comps {
			if s.Comp.Peer != 0 && s.Comp.Peer != 1 {
				flaky = s.Comp.Peer
				break
			}
		}
	})
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if flaky == p2p.NoNode {
		t.Skip("no component peer to make flaky")
	}
	for round := 0; round < 4; round++ {
		c.Net.Fail(flaky)
		c.Sim.Run(c.Sim.Now() + 30*time.Second)
		c.Net.Recover(flaky)
		c.Sim.Run(c.Sim.Now() + 10*time.Second)
	}

	if st := sp.Recovery.Stats(); st.FailuresDetected == 0 {
		t.Fatal("recovery never engaged")
	}
}

func TestFailFraction(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 8, Peers: 50})
	failed := c.FailFraction(0.2)
	if len(failed) != 10 {
		t.Fatalf("failed %d peers, want 10", len(failed))
	}
	for _, id := range failed {
		if c.Net.Alive(id) {
			t.Fatal("failed peer reported alive")
		}
	}
}

func TestWorldAdapterConsistency(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 9, Peers: 40})
	w := c.World()
	fns := c.FunctionsByReplicas()
	if got := len(w.ComponentsFor(fns[0])); got != c.Replicas(fns[0]) {
		t.Fatalf("world sees %d replicas, cluster %d", got, c.Replicas(fns[0]))
	}
	if !w.Alive(0) {
		t.Fatal("world liveness wrong")
	}
	var req qos.Resources
	req[qos.CPU] = 1
	if !w.Commit(3, req) {
		t.Fatal("commit failed on idle peer")
	}
	if c.Peers[3].Ledger.HardAllocated() == (qos.Resources{}) {
		t.Fatal("world commit did not reach the ledger")
	}
	w.Free(3, req)
	if c.Peers[3].Ledger.HardAllocated() != (qos.Resources{}) {
		t.Fatal("world free did not reach the ledger")
	}
}

// TestDynamicPeerArrival joins a brand-new peer into a running deployment
// and verifies it becomes discoverable and composable.
func TestDynamicPeerArrival(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 10, Peers: 40, Catalog: catalog(4)})
	before := len(c.Peers)

	// The newcomer provides a function nobody else offers.
	newcomer := c.Join([]string{"exotic"}, 0)
	c.Sim.Run(c.Sim.Now() + 30*time.Second)

	if len(c.Peers) != before+1 {
		t.Fatalf("peer count %d, want %d", len(c.Peers), before+1)
	}
	if newcomer.DHT.NumLeaves() == 0 {
		t.Fatal("newcomer never joined the DHT")
	}
	// Discoverable from an old peer.
	found := false
	c.Peers[3].Registry.Discover(registry.FunctionKey("exotic"), 0, registry.Listing{Root: p2p.NoNode}, 2*time.Second, func(a dht.Answer) {
		found = a.OK && len(registry.Answered(nil, a).Comps) == 1
	})
	c.Sim.Run(c.Sim.Now() + 10*time.Second)
	if !found {
		t.Fatal("newcomer's service not discoverable")
	}
	// Composable: a request spanning an old function and the newcomer's.
	fns := c.FunctionsByReplicas()
	q := qos.Unbounded()
	q[qos.Delay] = 8000
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	req := &service.Request{
		ID: 77, FGraph: fgraph.Linear(fns[0], "exotic"), QoSReq: q, Res: res,
		Bandwidth: 10, Source: 1, Dest: 2, Budget: 16,
	}
	okc := false
	c.Peers[1].Engine.Compose(req, func(r bcp.Result) {
		okc = r.Ok
		if r.Ok {
			if !r.Best.ContainsPeer(newcomer.Node.ID()) {
				t.Error("composition did not use the only exotic provider")
			}
			c.Peers[1].Engine.Teardown(r.Best)
		}
	})
	c.Sim.Run(c.Sim.Now() + 60*time.Second)
	if !okc {
		t.Fatal("composition through the newcomer failed")
	}
}

// TestChurnStepFailsLivePeersAndBringsThemBack: a plan's churn tick takes
// down exactly frac of the peers (never one already down, at least one), and
// every victim returns after DownFor.
func TestChurnStepFailsLivePeersAndBringsThemBack(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 9, Peers: 40})
	down := func() int {
		n := 0
		for i := range c.Peers {
			if !c.Net.Alive(p2p.NodeID(i)) {
				n++
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(4))
	t0 := c.Sim.Now()
	run := c.Start(cluster.Plan{
		Churn: []cluster.Churn{
			{Rng: rng, Frac: 0.1, Ticks: []time.Duration{t0 + time.Second, t0 + 2*time.Second}, DownFor: time.Minute},
			{Rng: rng, Frac: 0.001, Ticks: []time.Duration{t0 + 3*time.Second}, DownFor: time.Minute},
		},
		Horizon: t0 + 3*time.Second + time.Minute,
	}, nil)
	for tick, want := range []int{4, 8, 9} {
		c.Sim.Run(t0 + time.Duration(tick+1)*time.Second)
		if got := down(); got != want {
			t.Fatalf("tick %d: %d peers down, want %d (a dead peer picked again, or none for a tiny fraction)", tick, got, want)
		}
	}
	run.Finish()
	if got := down(); got != 0 {
		t.Fatalf("%d peers still down after DownFor", got)
	}
}

// TestOrphansCountsLivePeersHoldingReservations: soft and hard holds both
// count, once per peer, and a dead peer's do not.
func TestOrphansCountsLivePeersHoldingReservations(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 9, Peers: 20})
	if n := c.Orphans(); n != 0 {
		t.Fatalf("fresh cluster has %d orphans", n)
	}
	res := qos.Resources{qos.CPU: 1, qos.Memory: 10}
	c.Peers[1].Ledger.Reserve(res)
	c.Peers[2].Ledger.CommitDirect(res)
	c.Peers[2].Ledger.Reserve(res)
	c.Peers[3].Ledger.CommitDirect(res)
	c.Net.Fail(3)
	if n := c.Orphans(); n != 2 {
		t.Fatalf("orphans=%d, want 2 (peers 1 and 2; peer 3 is down)", n)
	}
}

// TestJoinWiresLikeNew: a newcomer is built by the same newPeer as the
// initial population, so on a recovering, traced and counted
// deployment it carries everything its siblings do.
func TestJoinWiresLikeNew(t *testing.T) {
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{
		Seed: 10, Peers: 40, Catalog: catalog(4), Recovery: &rc,
		Trace: &obs.MemSink{}, Obs: obs.NewRegistry(), Metrics: obs.NewMetrics(),
	})
	p := c.Join([]string{"exotic"}, 0)
	switch {
	case p.Recovery == nil:
		t.Error("newcomer has no recovery manager")
	case p.Engine.Ctr == nil || p.DHT.Ctr != p.Engine.Ctr:
		t.Error("newcomer's engine and DHT node share no counter block")
	case p.Engine.Trace == nil || p.DHT.Trace == nil || p.Recovery.Trace == nil:
		t.Error("newcomer is not traced")
	case p.Engine.Met == nil || p.DHT.Met == nil:
		t.Error("newcomer feeds no histograms")
	case p.Media == nil || p.Fed != nil:
		t.Error("newcomer media/federation wiring differs from an unfederated sibling's")
	}
}

// TestLoadPlaneReachesEveryEngine: the overload plane is declared once, in
// Options.Load, and reaches every engine, a newcomer's too, as one field:
// nil on an unloaded deployment, otherwise exactly those options beside an
// oracle that reads the cluster's own ledgers.
func TestLoadPlaneReachesEveryEngine(t *testing.T) {
	off := cluster.New(cluster.Options{Seed: 10, Peers: 20, Catalog: catalog(4)})
	off.Join([]string{"exotic"}, 0)
	for i, p := range off.Peers {
		if p.Engine.Load != nil {
			t.Fatalf("peer %d of an unloaded deployment has a load plane", i)
		}
	}

	opts := cluster.LoadOptions{Model: qos.DefaultLoadModel(), Aware: true, Shed: 0.6}
	c := cluster.New(cluster.Options{Seed: 10, Peers: 20, Catalog: catalog(4), Load: &opts})
	c.Join([]string{"exotic"}, 0)
	for i, p := range c.Peers {
		// Peers hold differing hard and soft CPU loads, so they read apart.
		p.Ledger.CommitDirect(qos.Resources{qos.CPU: float64(i % 10)})
		p.Ledger.Reserve(qos.Resources{qos.CPU: float64(i % 7)})
	}
	for i, p := range c.Peers {
		plane := p.Engine.Load
		if plane == nil || plane.LoadOptions != opts || plane.Oracle == nil {
			t.Fatalf("peer %d: plane %+v, want options %+v and an oracle", i, plane, opts)
		}
		for j, q := range c.Peers {
			id := p2p.NodeID(j)
			if plane.Oracle.Util(id) != q.Ledger.Utilization() || plane.Oracle.Committed(id) != q.Ledger.CommittedUtilization() {
				t.Fatalf("peer %d's oracle reads peer %d at %v/%v, its ledger at %v/%v", i, j,
					plane.Oracle.Util(id), plane.Oracle.Committed(id), q.Ledger.Utilization(), q.Ledger.CommittedUtilization())
			}
		}
	}
	if u := c.Peers[3].Ledger.Utilization(); u == 0 || u == c.Peers[4].Ledger.Utilization() {
		t.Fatalf("utilization %v does not tell peers apart", u)
	}
}

// TestJoinRefusesPlannedDeployments: a domain plan is sized to the initial
// peer count, so Join refuses it with a cluster: message instead of building
// a peer no lookup can reach.
func TestJoinRefusesPlannedDeployments(t *testing.T) {
	for name, o := range map[string]cluster.Options{
		"federated": {Seed: 10, Peers: 40, Catalog: catalog(4), Domains: &federation.Spec{Domains: 2}},
	} {
		t.Run(name, func(t *testing.T) {
			c := cluster.New(o)
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "cluster: Join") {
					t.Errorf("Join on a %s deployment: recovered %q, want a cluster: refusal", name, msg)
				}
				if len(c.Peers) != 40 {
					t.Errorf("refused Join left %d peers, want 40", len(c.Peers))
				}
			}()
			c.Join([]string{"exotic"}, 0)
		})
	}
}

// TestValidateNamesTheBrokenRule: every cross-field rule lives in
// Options.Validate, which New panics with and spidersim returns.
func TestValidateNamesTheBrokenRule(t *testing.T) {
	two := &federation.Spec{Domains: 2}
	for want, o := range map[string]cluster.Options{
		"500 peers exceed 100 IP nodes": {Peers: 500, IPNodes: 100},
		"cannot host 4 domains":         {Peers: 10, Domains: &federation.Spec{Domains: 4, Gateways: 3}},
		"cannot shard across 2 domains": {Catalog: catalog(1), Domains: two},
	} {
		err := o.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), "cluster: ") || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate(%+v) = %v, want a cluster: error mentioning %q", o, err, want)
			continue
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != err.Error() {
					t.Errorf("New panicked with %q, Validate said %q", msg, err)
				}
			}()
			cluster.New(o)
		}()
	}
	for _, o := range []cluster.Options{{}, {Domains: two}, {Peers: 64}} {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
}
