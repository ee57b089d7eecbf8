package cluster_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// TestDrainAfterChurn measures what a run leaves allocated once every session
// has ended: 200 sessions of 60 s on 120 peers, one arriving a second,
// drained to 400 s. Without churn every allocation is released. With 3 % of
// the peers failing every 10 s from 10 s to 260 s, each down 20 s, hard
// allocations stay behind (EXPERIMENTS.md, Known deviations): a teardown
// sent to a downed peer is dropped and the peer comes back holding them.
// -v prints them per seed.
func TestDrainAfterChurn(t *testing.T) {
	for _, frac := range []float64{0, 0.03} {
		for seed := int64(1); seed <= 3; seed++ {
			rc := recovery.DefaultConfig()
			c := cluster.New(cluster.Options{Seed: seed, IPNodes: 1200, Peers: 120, Catalog: catalog(20), Recovery: &rc})
			gen := workload.NewGenerator(workload.Config{
				Catalog: catalog(20), Peers: 120, MinFuncs: 2, MaxFuncs: 3, Budget: 40,
				DelayReqMin: 4000, DelayReqMax: 8000, FailReq: 0.02,
			}, rand.New(rand.NewSource(seed+300)))
			origin := c.Sim.Now()
			plan := cluster.Plan{Life: time.Minute, Horizon: origin + 400*time.Second}
			for i := 0; i < 200; i++ {
				plan.Arrivals = append(plan.Arrivals, cluster.Arrival{At: origin + time.Duration(i)*time.Second, Req: gen.Next()})
			}
			if frac > 0 {
				ch := cluster.Churn{Rng: rand.New(rand.NewSource(seed + 400)), Frac: frac, DownFor: 20 * time.Second}
				for at := 10 * time.Second; at <= 260*time.Second; at += 10 * time.Second {
					ch.Ticks = append(ch.Ticks, origin+at)
				}
				plan.Churn = []cluster.Churn{ch}
			}
			c.Start(plan, nil).Finish()

			var cpu float64
			held := 0
			for i, p := range c.Peers {
				if !c.Net.Alive(p2p.NodeID(i)) {
					t.Fatalf("seed %d: peer %d still down after the drain", seed, i)
				}
				if h := p.Ledger.HardAllocated(); h != (qos.Resources{}) {
					cpu += h[qos.CPU]
					held++
				}
			}
			if frac == 0 && (held > 0 || c.Orphans() > 0) {
				t.Errorf("seed %d without churn: %.0f CPU units on %d peers, %d peers holding anything after the drain", seed, cpu, held, c.Orphans())
			}
			t.Logf("seed %d, churn %.0f %%: %.0f CPU units hard-allocated on %d peers after the drain", seed, 100*frac, cpu, held)
		}
	}
}
