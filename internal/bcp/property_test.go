package bcp_test

import (
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
)

// TestProbeCountBoundedByBudget checks BCP's defining invariant: the number
// of probe messages a request emits is bounded by (roughly) the probing
// budget times the number of hop levels — the "bounded" in bounded
// composition probing. Each hop level spawns at most the budget it
// received, so the total is <= budget × functions.
func TestProbeCountBoundedByBudget(t *testing.T) {
	for _, budget := range []int{1, 2, 4, 8, 16, 32, 64} {
		c := cluster.New(cluster.Options{Seed: 95, Peers: 60, Catalog: catalog(6)})
		req := req3(c, 1, budget)
		nf := req.FGraph.NumFunctions()
		c.Peers[int(req.Source)].Engine.Compose(req, func(bcp.Result) {})
		c.Sim.Run(c.Sim.Now() + 60*time.Second)
		probes := c.Net.Stats().ByType[bcp.MsgProbe]
		bound := int64(budget * nf)
		if probes > bound {
			t.Fatalf("budget %d: %d probes exceed bound %d", budget, probes, bound)
		}
		if probes == 0 {
			t.Fatalf("budget %d: no probes at all", budget)
		}
	}
}

// TestBudgetMonotoneQuality verifies that raising the budget never makes
// the selected graph's cost worse on an otherwise idle, identical cluster.
func TestBudgetMonotoneQuality(t *testing.T) {
	cost := func(budget int) float64 {
		c := cluster.New(cluster.Options{Seed: 96, Peers: 80, Catalog: catalog(5)})
		req := req3(c, 1, budget)
		res := compose(c, req)
		if !res.Ok {
			return -1
		}
		return res.Best.Cost(req)
	}
	small := cost(2)
	large := cost(64)
	if small < 0 || large < 0 {
		t.Skip("composition failed at some budget")
	}
	// Allow small numerical slack: the large-budget selection must not be
	// meaningfully worse.
	if large > small*1.05 {
		t.Fatalf("cost degraded with budget: %.4f (β=2) -> %.4f (β=64)", small, large)
	}
}

// TestRepeatedComposeReleasesAllState runs many compose/teardown cycles and
// verifies nothing accumulates: ledgers empty and a final composition still
// succeeds with the same cost as the first.
func TestRepeatedComposeReleasesAllState(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 97, Peers: 60, Catalog: catalog(6)})
	var firstKey string
	for i := 0; i < 10; i++ {
		req := req3(c, uint64(i+1), 24)
		res := compose(c, req)
		if !res.Ok {
			t.Fatalf("round %d failed", i)
		}
		if i == 0 {
			firstKey = res.Best.Key()
		} else if res.Best.Key() != firstKey {
			t.Fatalf("round %d selected a different graph on an idle cluster", i)
		}
		c.Peers[int(req.Source)].Engine.Teardown(res.Best)
		c.Sim.Run(c.Sim.Now() + 10*time.Second)
	}
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	allLedgersClean(t, c, "repeated compose")
}
