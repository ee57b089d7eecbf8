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
	// Duplication on an unhardened wire is the one fault that mints
	// termination credit (see bcp.Probe.Credit): a duplicated mid-path probe
	// is processed twice and both lineages carry its full credit. The
	// collector must still answer every request exactly once, selecting
	// only from probes that really returned, whether the inflated sum
	// overshoots the total (window bound) or lands on it.
	t.Run("dup=0.25 unhardened", func(t *testing.T) {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			runChaosSeed(t, seed, 0, 0.25)
		}
	})
}

func runChaosSeed(t *testing.T, seed int64, loss, dup float64) {
	t.Helper()
	const nPeers = 24
	const nReqs = 6
	cat := chaosCatalog(6)

	cfg := bcp.DefaultConfig()
	if loss > 0 {
		// Per-hop hardening: ack every probe hop, retransmit twice.
		cfg.ProbeAckTimeout = 300 * time.Millisecond
		cfg.ProbeRetries = 2
	}
	mem := &obs.MemSink{}
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Options{
		Seed: seed, IPNodes: 150, Peers: nPeers, Catalog: cat,
		BCP: cfg, Trace: mem, Obs: reg,
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
					snap, ok := res.Best.Comps[fn]
					if !ok || snap.Comp.ID == "" {
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

	events := mem.Events()
	for _, v := range obs.Check(events) {
		if loss == 0 && dup > 0 && v.Name == obs.VioProbeDoubleTerm {
			// Without hardening nobody de-duplicates a copied probe: it is
			// processed, and so terminates, once per copy.
			continue
		}
		t.Errorf("seed=%d loss=%g invariant: %s", seed, loss, v)
	}
	for _, v := range obs.CheckTotals(events, reg.Totals()) {
		t.Errorf("seed=%d loss=%g totals: %s", seed, loss, v)
	}
}

// TestHardeningOffKeepsBaselineTrace pins that the hardening knobs are
// strictly opt-in: a zero ProbeAckTimeout must not change a clean-network
// trace by a single byte relative to the default configuration.
func TestHardeningOffKeepsBaselineTrace(t *testing.T) {
	render := func(cfg bcp.Config) []obs.Event {
		mem := &obs.MemSink{}
		c := cluster.New(cluster.Options{
			Seed: 5, IPNodes: 150, Peers: 24, Catalog: chaosCatalog(6),
			BCP: cfg, Trace: mem,
		})
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
	base := render(bcp.DefaultConfig())
	again := render(bcp.DefaultConfig())
	if len(base) == 0 {
		t.Fatal("no events")
	}
	if fmt.Sprintf("%v", base) != fmt.Sprintf("%v", again) {
		t.Fatal("baseline trace not deterministic")
	}
}
