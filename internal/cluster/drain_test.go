package cluster_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestDrainAfterChurn holds what a run leaves behind once every session has
// ended to zero: 200 sessions of 60 s on 120 peers, one arriving a second,
// drained to 400 s, without churn and with 3 % of the peers failing every
// 10 s from 10 s to 260 s, each down 20 s. A teardown sent to a downed peer
// is dropped and the peer comes back holding what it had; the lease each
// allocation carries (the session's life plus recovery's Lease, renewed by
// its maintenance walks) frees it, and a timer that came due while its peer
// was down fires when it comes back. No CPU unit may stay hard-allocated,
// every overlay link must be back at its capacity, no peer may hold any
// reservation (Orphans: a soft one's SoftTimeout fired) and every issued
// arrival must have been answered. The trace's checker holds each expiry to an admission. -v prints
// the expiries per seed.
func TestDrainAfterChurn(t *testing.T) {
	for _, frac := range []float64{0, 0.03} {
		for seed := int64(1); seed <= 3; seed++ {
			rc := recovery.DefaultConfig()
			chk, expired := obs.NewChecker(), 0
			c := cluster.New(cluster.Options{Seed: seed, IPNodes: 1200, Peers: 120, Catalog: catalog(20), Recovery: &rc,
				Trace: obs.TracerFunc(func(ev obs.Event) {
					chk.Add(ev)
					if ev.Kind == obs.KindSessionExpire {
						expired++
					}
				})})
			capacity := make([]float64, c.Overlay.NumLinks())
			for i := range capacity {
				capacity[i] = c.Overlay.AvailBandwidth(topology.Path{Links: []int{i}})
			}
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
			run := c.Start(plan, nil)
			run.Finish()

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
			busy := 0
			for i, want := range capacity {
				if got := c.Overlay.AvailBandwidth(topology.Path{Links: []int{i}}); math.Abs(got-want) > 1e-6*want {
					busy++
				}
			}
			if held > 0 || busy > 0 || c.Orphans() > 0 || run.Completed != run.Issued {
				t.Errorf("seed %d, churn %.0f %%: %.0f CPU units on %d peers, %d links below capacity, %d peers holding anything after the drain, %d of %d arrivals answered",
					seed, 100*frac, cpu, held, busy, c.Orphans(), run.Completed, run.Issued)
			}
			for _, v := range chk.Finish() {
				if v.Name == obs.VioExpireNoAdmit {
					t.Errorf("seed %d: %v", seed, v)
				}
			}
			t.Logf("seed %d, churn %.0f %%: %d allocations expired, %d of %d arrivals answered", seed, 100*frac, expired, run.Completed, run.Issued)
		}
	}
}

// TestDrainConservesBandwidth: a run returns every overlay pair's bandwidth.
// One schedule — 300 requests, half of them diamonds, one a second, each
// session living a minute — runs on a cluster of seed 3 with recovery, with
// and without 2 % of the peers failing every 10 s (each down 20 s), once
// composed by BCP and maintained by recovery (switchovers and
// re-compositions included) and once admitted by a global-view baseline
// (Plan.Admit). After each drain, every peer pair's route reads the available
// bandwidth it reads on a fresh cluster of that seed (to float rounding:
// sessions reserve and release a link in interleaved order), and no peer
// holds any reservation. ReleaseBandwidth clamps at a link's capacity, so
// this catches a pair released less often than it was reserved, not one
// released more.
func TestDrainConservesBandwidth(t *testing.T) {
	const seed = 3
	build := func() *cluster.Cluster {
		rc := recovery.DefaultConfig()
		return cluster.New(cluster.Options{Seed: seed, IPNodes: 1200, Peers: 120, Catalog: catalog(20), Recovery: &rc})
	}
	fresh := build()
	avail := func(c *cluster.Cluster, a, b int) float64 {
		p, _ := c.Overlay.Route(a, b)
		return c.Overlay.AvailBandwidth(p)
	}
	for _, frac := range []float64{0, 0.02} {
		for _, global := range []bool{false, true} {
			c := build()
			gen := workload.NewGenerator(workload.Config{
				Catalog: catalog(20), Peers: 120, MinFuncs: 3, MaxFuncs: 5, Budget: 40,
				DelayReqMin: 4000, DelayReqMax: 8000, FailReq: 0.02, DAGProb: 0.5,
			}, rand.New(rand.NewSource(seed+300)))
			origin := c.Sim.Now()
			plan := cluster.Plan{Life: time.Minute, Horizon: origin + 500*time.Second}
			for i := 0; i < 300; i++ {
				plan.Arrivals = append(plan.Arrivals, cluster.Arrival{At: origin + time.Duration(i)*time.Second, Req: gen.Next()})
			}
			if frac > 0 {
				ch := cluster.Churn{Rng: rand.New(rand.NewSource(seed + 400)), Frac: frac, DownFor: 20 * time.Second}
				for at := 10 * time.Second; at <= 300*time.Second; at += 10 * time.Second {
					ch.Ticks = append(ch.Ticks, origin+at)
				}
				plan.Churn = []cluster.Churn{ch}
			}
			ok := 0
			if global {
				w := c.World()
				plan.Admit = func(req *service.Request) (func(), bool) {
					g, ok := baselines.Greedy(w, req)
					if !ok || !baselines.Admit(w, g) {
						return nil, false
					}
					return func() { baselines.Release(w, g) }, true
				}
			}
			run := c.Start(plan, func(_ int, o cluster.Outcome) {
				if o.Ok {
					ok++
				}
			})
			run.Finish()

			held := 0
			for a := range c.Peers {
				for b := range c.Peers {
					if got, want := avail(c, a, b), avail(fresh, a, b); a != b && math.Abs(got-want) > 1e-6*want {
						held++
						if held <= 5 {
							t.Errorf("churn %.0f %%, global view %v: route %d→%d reads %.1f kbps after the drain, %.1f fresh", 100*frac, global, a, b, got, want)
						}
					}
				}
			}
			if held > 0 || c.Orphans() > 0 {
				t.Errorf("churn %.0f %%, global view %v: %d routes below their fresh bandwidth, %d peers holding anything after the drain", 100*frac, global, held, c.Orphans())
			}
			t.Logf("churn %.0f %%, global view %v: %d of %d arrivals composed", 100*frac, global, ok, run.Issued)
		}
	}
}
