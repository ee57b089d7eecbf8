package bcp_test

import (
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/qos"
	"repro/internal/workload"
)

// TestComposeAllocBudget is the composition-path allocation ratchet: one full
// composition (discovery, probe fan-out across the overlay, forwarding at
// every hop, destination-side collection and selection, reverse-path setup,
// teardown) may allocate 5 % more objects than it measured when the budget
// was last set, no more. `BenchmarkBCPCompose -benchmem` reports the same
// path on a slightly different request stream; DESIGN.md "Allocation budget
// of one composition" says where the objects go. Lower the budget when a
// change lowers the figure.
func TestComposeAllocBudget(t *testing.T) {
	catalog := []string{"fn0", "fn1", "fn2", "fn3", "fn4", "fn5", "fn6", "fn7", "fn8", "fn9"}
	c := cluster.New(cluster.Options{Seed: 75, IPNodes: 400, Peers: 60, Catalog: catalog})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog, Peers: 60, MinFuncs: 3, MaxFuncs: 3,
		Budget: 12, DelayReqMin: 300, DelayReqMax: 600,
	}, c.Rng)

	compose := func() {
		req := gen.Next()
		req.QoSReq[qos.Delay] = 5000
		eng := c.Peers[int(req.Source)].Engine
		eng.Compose(req, func(res bcp.Result) {
			if res.Ok {
				eng.Teardown(res.Best)
			}
		})
		c.Sim.Run(c.Sim.Now() + 30*time.Second)
	}
	// Warm route caches, DHT state, and the simulator freelist so the
	// measurement reflects the steady state the figures run in.
	for i := 0; i < 5; i++ {
		compose()
	}
	avg := testing.AllocsPerRun(50, compose)
	const budget = 499 // measured 475; 598 before the first hops stopped looking up what the source's probes now hand them
	if avg > budget {
		t.Fatalf("one composition allocates %.0f objects, budget %d", avg, budget)
	}
}
