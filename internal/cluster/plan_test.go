package cluster_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/workload"
)

// TestPlanAccountsForEveryArrival: a run reports every arrival exactly
// once, skips one exactly when its source is down at its instant, and by the
// horizon has heard back from every composition it issued — on a churned
// plan and on a federated plan that loses a gateway mid-window, which must
// also drain to zero orphaned reservations.
func TestPlanAccountsForEveryArrival(t *testing.T) {
	t.Run("churned", func(t *testing.T) {
		// The ticks land before the first arrival: a source that crashes
		// mid-composition takes its give-up timer down with it and never
		// completes. Victims are back at t0+22s and t0+25s, in the middle of
		// the arrival window.
		c := cluster.New(cluster.Options{Seed: 11, IPNodes: 300, Peers: 40, Catalog: catalog(6)})
		t0 := c.Sim.Now()
		plan := arrivals(c, t0+10*time.Second, 40, 20*time.Second)
		plan.Life = 5 * time.Second
		plan.Churn = []cluster.Churn{{Rng: rand.New(rand.NewSource(3)), Frac: 0.2,
			Ticks: []time.Duration{t0 + 2*time.Second, t0 + 5*time.Second}, DownFor: 20 * time.Second}}
		plan.Horizon = t0 + time.Minute
		if run := accountFor(t, c, plan); run.Skipped == 0 || run.Issued == 0 {
			t.Errorf("issued %d, skipped %d: want both, or the skip rule is untested", run.Issued, run.Skipped)
		}
	})
	t.Run("federated", func(t *testing.T) {
		c := cluster.New(cluster.Options{Seed: 12, IPNodes: 300, Peers: 40, Catalog: catalog(6),
			Domains: &federation.Spec{Domains: 2, Gateways: 2, Hold: 5 * time.Second, Life: 5 * time.Second}})
		t0 := c.Sim.Now()
		gws := c.DomainPlan().Gateways(1)
		c.Sim.Schedule(10*time.Second, func() { c.Net.Fail(gws[len(gws)-1]) })
		plan := arrivals(c, t0, 30, 20*time.Second)
		plan.Horizon = t0 + 20*time.Second
		accountFor(t, c, plan)
		if n := c.Orphans(); n != 0 {
			t.Errorf("%d live peers hold reservations after the drain", n)
		}
	})
}

// arrivals plans n requests at uniform instants in [from, from+window).
func arrivals(c *cluster.Cluster, from time.Duration, n int, window time.Duration) cluster.Plan {
	rng := rand.New(rand.NewSource(5))
	gen := workload.NewGenerator(workload.Config{Catalog: catalog(6), Peers: len(c.Peers),
		MinFuncs: 2, MaxFuncs: 3, Budget: 8}, rng)
	var p cluster.Plan
	for i := 0; i < n; i++ {
		p.Arrivals = append(p.Arrivals, cluster.Arrival{At: from + time.Duration(rng.Float64()*float64(window)), Req: gen.Next()})
	}
	return p
}

// accountFor runs plan on c and checks the run's accounting of it.
func accountFor(t *testing.T, c *cluster.Cluster, plan cluster.Plan) *cluster.Run {
	t.Helper()
	n := len(plan.Arrivals)
	reports := make([]int, n)
	skipped := make([]bool, n)
	run := c.Start(plan, func(i int, o cluster.Outcome) {
		reports[i]++
		skipped[i] = o.Skipped
	})
	// Scheduled after Start, each probe fires right after its arrival.
	alive := make([]bool, n)
	for i, a := range plan.Arrivals {
		c.Sim.Schedule(a.At-c.Sim.Now(), func() { alive[i] = c.Net.Alive(a.Req.Source) })
	}
	run.Finish()
	for i := range plan.Arrivals {
		if reports[i] != 1 {
			t.Errorf("arrival %d reported %d times", i, reports[i])
		}
		if skipped[i] == alive[i] {
			t.Errorf("arrival %d: skipped %v with its source alive %v at its instant", i, skipped[i], alive[i])
		}
	}
	if run.Issued != run.Completed || run.Issued+run.Skipped != n {
		t.Errorf("%d arrivals: issued %d, completed %d, skipped %d", n, run.Issued, run.Completed, run.Skipped)
	}
	return run
}
