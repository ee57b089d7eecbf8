// Chaos tests: property-based checks that BCP composition survives a lossy,
// duplicating, reordering network. For every seed × loss level the engine
// must deliver exactly one callback per request (valid graph or clean
// failure), never hang the virtual clock, and leave a trace that satisfies
// the obs invariants — every probe copy accounted delivered or dropped.
package bcp_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/workload"
)

func chaosCatalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn%d", i)
	}
	return out
}

func TestComposeUnderChaos(t *testing.T) {
	seeds := 17
	if testing.Short() {
		seeds = 5
	}
	for _, loss := range []float64{0, 0.05, 0.20} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				runChaosSeed(t, seed, loss, loss/4)
			}
		})
	}
}

// runChaosSeed composes over a jittery wire with the given loss and
// duplication, which hardens every engine (per-hop acks, two retransmits).
func runChaosSeed(t *testing.T, seed int64, loss, dup float64) {
	t.Helper()
	const nPeers = 24
	const nReqs = 6
	cat := chaosCatalog(6)

	chk := obs.NewChecker()
	c := cluster.New(cluster.Options{
		Seed: seed, IPNodes: 150, Peers: nPeers, Catalog: cat,
		Trace: obs.TracerFunc(chk.Add),
	})
	// Faults start after the registration warm-up so the DHT holds the full
	// catalogue; a fresh per-run fault seed decorrelates the loss pattern
	// from the workload.
	c.ApplyFaults(simnet.FaultPlan{
		Seed:    seed * 7919,
		Default: simnet.LinkFaults{Loss: loss, Dup: dup, Jitter: 10 * time.Millisecond},
	})

	gen := workload.NewGenerator(workload.Config{
		Catalog: cat, Peers: nPeers, MinFuncs: 2, MaxFuncs: 3,
		Budget: 12, DelayReqMin: 500, DelayReqMax: 2000,
	}, c.Rng)
	callbacks := make(map[uint64]int)
	established := 0
	for i := 0; i < nReqs; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*2*time.Second, func() {
			c.Peers[int(req.Source)].Engine.Compose(req, func(res bcp.Result) {
				callbacks[req.ID]++
				if !res.Ok {
					return // clean failure is an acceptable outcome under loss
				}
				established++
				if res.Best == nil {
					t.Errorf("seed=%d loss=%g req=%d: Ok result with nil graph", seed, loss, req.ID)
					return
				}
				// The graph must instantiate every function of its pattern.
				for _, fn := range res.Best.Pattern.TopoOrder() {
					if !res.Best.Comps[fn].Assigned() {
						t.Errorf("seed=%d loss=%g req=%d: function %d uninstantiated", seed, loss, req.ID, fn)
					}
				}
			})
		})
	}
	// The virtual clock must drain: GiveUpTimeout bounds every composition,
	// so an idle scheduler with missing callbacks means a hung session.
	c.Sim.RunUntilIdle()

	for id, n := range callbacks {
		if n != 1 {
			t.Errorf("seed=%d loss=%g req=%d: %d callbacks, want exactly 1", seed, loss, id, n)
		}
	}
	if len(callbacks) != nReqs {
		t.Errorf("seed=%d loss=%g: %d of %d requests called back (hung composition)", seed, loss, len(callbacks), nReqs)
	}
	if loss == 0 && established == 0 {
		t.Errorf("seed=%d: no composition succeeded on a clean network", seed)
	}

	for _, v := range chk.Finish() {
		t.Errorf("seed=%d loss=%g invariant: %s", seed, loss, v)
	}
}

// TestHardeningOffKeepsBaselineTrace pins that only a fault plan that
// injects something hardens a deployment: a cluster given no plan, or a plan
// that injects nothing, traces a clean-network run byte for byte as one never
// given a plan.
func TestHardeningOffKeepsBaselineTrace(t *testing.T) {
	render := func(apply func(*cluster.Cluster)) []obs.Event {
		mem := &obs.MemSink{}
		c := cluster.New(cluster.Options{
			Seed: 5, IPNodes: 150, Peers: 24, Catalog: chaosCatalog(6), Trace: mem,
		})
		apply(c)
		for _, p := range c.Peers {
			if p.Engine.Hardened() {
				t.Fatalf("peer %d hardened by a plan that injects nothing", p.Node.ID())
			}
		}
		gen := workload.NewGenerator(workload.Config{
			Catalog: chaosCatalog(6), Peers: 24, MinFuncs: 2, MaxFuncs: 3,
			Budget: 12, DelayReqMin: 500, DelayReqMax: 2000,
		}, c.Rng)
		for i := 0; i < 4; i++ {
			req := gen.Next()
			c.Sim.Schedule(time.Duration(i)*time.Second, func() {
				c.Peers[int(req.Source)].Engine.Compose(req, func(bcp.Result) {})
			})
		}
		c.Sim.RunUntilIdle()
		return mem.Events()
	}
	base := fmt.Sprintf("%v", render(func(*cluster.Cluster) {}))
	if base == "[]" {
		t.Fatal("no events")
	}
	for name, apply := range map[string]func(*cluster.Cluster){
		"no plan":        func(*cluster.Cluster) {},
		"nil spec":       func(c *cluster.Cluster) { c.ApplyFaultSpec(nil) },
		"zero-rate spec": func(c *cluster.Cluster) { c.ApplyFaultSpec(&simnet.FaultSpec{Seed: 4}) },
		"zero-rate plan": func(c *cluster.Cluster) { c.ApplyFaults(simnet.FaultPlan{Seed: 9}) },
	} {
		if got := fmt.Sprintf("%v", render(apply)); got != base {
			t.Errorf("%s: trace differs from a run never given a plan", name)
		}
	}
}

// TestHardeningFollowsTheWire: an engine is hardened exactly while its
// network injects faults, whether the plan was set on the network or applied
// by the cluster, and so is a peer that joins under the plan.
func TestHardeningFollowsTheWire(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 2, IPNodes: 100, Peers: 20, Catalog: chaosCatalog(4)})
	want := func(stage string, hardened bool) {
		t.Helper()
		for _, p := range c.Peers {
			if p.Engine.Hardened() != hardened {
				t.Fatalf("%s: peer %d hardened=%v, want %v", stage, p.Node.ID(), p.Engine.Hardened(), hardened)
			}
		}
	}
	c.Net.SetFaults(simnet.FaultPlan{Seed: 3})
	want("a plan that injects nothing", false)
	c.Net.SetFaults(simnet.FaultPlan{Seed: 3, Default: simnet.LinkFaults{Dup: 0.1}})
	want("a duplicating plan", true)
	c.Join([]string{"fn0"}, 0)
	want("a duplicating plan, after a join", true)
	c.Net.SetFaults(simnet.FaultPlan{})
	want("a cleared plan", false)
	c.ApplyFaults(simnet.FaultPlan{Seed: 1, Default: simnet.LinkFaults{Loss: 0.05}})
	want("a lossy plan the cluster applied", true)
}
