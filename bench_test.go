package spidernet

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per figure, reduced scale per iteration) plus
// ablation benchmarks for the design choices called out in DESIGN.md.
// Figures report their headline numbers through b.ReportMetric, so
// `go test -bench=.` prints both the running time and the reproduced
// quantities. Full-size runs: `go run ./cmd/spiderbench -fig all [-paper]`.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/experiment"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// --- Figure benchmarks -------------------------------------------------

// BenchmarkFig8SuccessRatio regenerates Figure 8: QoS success ratio vs.
// workload for optimal / probing-0.2 / probing-0.1 / random / static.
func BenchmarkFig8SuccessRatio(b *testing.B) {
	cfg := experiment.DefaultFig8Config()
	cfg.IPNodes = 400
	cfg.Peers = 60
	cfg.Functions = 12
	cfg.Workloads = []int{2, 8}
	cfg.TimeUnits = 10
	var res experiment.Fig8Result
	for i := 0; i < b.N; i++ {
		res = experiment.Fig8(cfg)
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.Optimal, "optimal-success")
	b.ReportMetric(last.Probing20, "probing02-success")
	b.ReportMetric(last.Random, "random-success")
}

// BenchmarkFig9FailureRecovery regenerates Figure 9: failure frequency
// with/without proactive recovery under 1%-per-unit churn.
func BenchmarkFig9FailureRecovery(b *testing.B) {
	cfg := experiment.DefaultFig9Config()
	cfg.IPNodes = 400
	cfg.Peers = 60
	cfg.Functions = 10
	cfg.Sessions = 12
	cfg.TimeUnits = 20
	var res experiment.Fig9Result
	for i := 0; i < b.N; i++ {
		res = experiment.Fig9(cfg)
	}
	b.ReportMetric(float64(res.DeadWithout), "failures-without")
	b.ReportMetric(float64(res.DeadWithRecovery), "failures-with")
	b.ReportMetric(res.AvgBackups, "avg-backups")
}

// BenchmarkFig10SetupTime regenerates Figure 10: wide-area session setup
// time vs. function count on the live goroutine runtime.
func BenchmarkFig10SetupTime(b *testing.B) {
	cfg := experiment.DefaultFig10Config()
	cfg.Hosts = 60
	cfg.Speedup = 100
	cfg.RequestsPerSize = 4
	var res experiment.Fig10Result
	for i := 0; i < b.N; i++ {
		res = experiment.Fig10(cfg)
	}
	for _, p := range res.Points {
		if p.Succeeded > 0 {
			b.ReportMetric(float64(p.Total)/float64(time.Millisecond),
				"setup-ms-"+itoa(p.Funcs)+"fn")
		}
	}
}

// BenchmarkFig11BudgetSweep regenerates Figure 11: service delay vs.
// probing budget for random / SpiderNet / optimal.
func BenchmarkFig11BudgetSweep(b *testing.B) {
	cfg := experiment.DefaultFig11Config()
	cfg.IPNodes = 500
	cfg.Peers = 60
	cfg.Budgets = []int{4, 60, 400}
	cfg.Requests = 6
	var res experiment.Fig11Result
	for i := 0; i < b.N; i++ {
		res = experiment.Fig11(cfg)
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.Random, "random-delay-ms")
	b.ReportMetric(last.SpiderNet, "spidernet-delay-ms")
	b.ReportMetric(last.Optimal, "optimal-delay-ms")
}

// BenchmarkOverheadVsCentralized regenerates the §6.1 overhead claim:
// BCP's on-demand probing vs. periodic global-view maintenance.
func BenchmarkOverheadVsCentralized(b *testing.B) {
	cfg := experiment.DefaultOverheadConfig()
	cfg.IPNodes = 400
	cfg.Peers = 80
	cfg.Functions = 12
	cfg.Requests = 30
	var res experiment.OverheadResult
	for i := 0; i < b.N; i++ {
		res = experiment.Overhead(cfg)
	}
	b.ReportMetric(res.Ratio, "centralized/bcp-ratio")
}

// --- Ablation benchmarks ------------------------------------------------

func ablationCluster(seed int64, bcpCfg bcp.Config) (*cluster.Cluster, *workload.Generator) {
	catalog := make([]string, 10)
	for i := range catalog {
		catalog[i] = "fn" + itoa(i)
	}
	c := cluster.New(cluster.Options{
		Seed: seed, IPNodes: 400, Peers: 60, Catalog: catalog, BCP: bcpCfg,
	})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog, Peers: 60, MinFuncs: 3, MaxFuncs: 3,
		Budget: 12, DelayReqMin: 300, DelayReqMax: 600,
	}, c.Rng)
	return c, gen
}

// runBatch composes n requests and returns (success ratio, mean delay ms).
func runBatch(c *cluster.Cluster, gen *workload.Generator, n int, mutate func(*service.Request)) (float64, float64) {
	okCount, delaySum, delayN := 0, 0.0, 0
	for i := 0; i < n; i++ {
		req := gen.Next()
		if mutate != nil {
			mutate(req)
		}
		eng := c.Peers[int(req.Source)].Engine
		eng.Compose(req, func(res bcp.Result) {
			if res.Ok {
				okCount++
				delaySum += res.Best.QoS[qos.Delay]
				delayN++
				eng.Teardown(res.Best)
			}
		})
		c.Sim.Run(c.Sim.Now() + 30*time.Second)
	}
	avg := 0.0
	if delayN > 0 {
		avg = delaySum / float64(delayN)
	}
	return float64(okCount) / float64(n), avg
}

// BenchmarkAblationQuota compares replica-proportional probing quotas (the
// paper's default) against uniform quotas of 1 probe per function.
func BenchmarkAblationQuota(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, gen := ablationCluster(70, bcp.DefaultConfig())
		okProp, _ := runBatch(c, gen, 15, nil)
		c2, gen2 := ablationCluster(70, bcp.DefaultConfig())
		okUniform, _ := runBatch(c2, gen2, 15, func(r *service.Request) {
			r.Quota = make([]int, r.FGraph.NumFunctions())
			for k := range r.Quota {
				r.Quota[k] = 1
			}
		})
		b.ReportMetric(okProp, "success-proportional")
		b.ReportMetric(okUniform, "success-uniform")
	}
}

// BenchmarkAblationCommutation compares composition with and without
// exchangeable-order exploration on requests that carry commutation links.
func BenchmarkAblationCommutation(b *testing.B) {
	run := func(disable bool) float64 {
		cfg := bcp.DefaultConfig()
		cfg.DisableCommutation = disable
		c := cluster.New(cluster.Options{Seed: 71, IPNodes: 400, Peers: 60, BCP: cfg})
		gen := workload.NewGenerator(workload.Config{
			Catalog: c.FunctionsByReplicas(), Peers: 60,
			MinFuncs: 3, MaxFuncs: 4, CommuteProb: 1.0,
			// Tight delay bounds: composition order decides qualification,
			// so exploring the exchanged order visibly rescues requests.
			Budget: 16, DelayReqMin: 180, DelayReqMax: 330,
		}, newSeededRng(71))
		ok, _ := runBatch(c, gen, 20, nil)
		return ok
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "success-with-commutation")
		b.ReportMetric(run(true), "success-without")
	}
}

// BenchmarkAblationNextHopMetric compares the composite next-hop selection
// metric against random next-hop picks under a small probing budget.
func BenchmarkAblationNextHopMetric(b *testing.B) {
	run := func(random bool) float64 {
		cfg := bcp.DefaultConfig()
		cfg.RandomNextHop = random
		cfg.SelectByDelay = true
		c, gen := ablationCluster(72, cfg)
		_, delay := runBatch(c, gen, 15, func(r *service.Request) {
			r.Budget = 4 // tight budget: selection quality matters
			r.QoSReq[qos.Delay] = 5000
		})
		return delay
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "delay-composite-metric")
		b.ReportMetric(run(true), "delay-random-nexthop")
	}
}

// BenchmarkAblationBackupSelection compares the paper's overlap-maximizing
// backup selection against fully disjoint backups: switchover recovery time
// should favor overlap.
func BenchmarkAblationBackupSelection(b *testing.B) {
	run := func(disjoint bool) (switchovers int, meanRecoveryMs float64, replacedOut, recoveriesOut int) {
		rc := recovery.DefaultConfig()
		rc.DisjointBackups = disjoint
		met := obs.NewMetrics()
		c := cluster.New(cluster.Options{
			Seed: 73, IPNodes: 400, Peers: 80, Recovery: &rc, Metrics: met,
		})
		gen := workload.NewGenerator(workload.Config{
			Catalog: c.FunctionsByReplicas()[:5], Peers: 80,
			MinFuncs: 3, MaxFuncs: 3, Budget: 60,
			DelayReqMin: 4000, DelayReqMax: 8000,
		}, newSeededRng(73))
		// Establish 10 sessions, then kill one component peer per session.
		var sessions []*service.Request
		for i := 0; i < 10; i++ {
			req := gen.Next()
			p := c.Peers[int(req.Source)]
			p.Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					p.Recovery.Establish(req, res)
					sessions = append(sessions, req)
				}
			})
			c.Sim.Run(c.Sim.Now() + 30*time.Second)
		}
		for _, req := range sessions {
			mgr := c.Peers[int(req.Source)].Recovery
			if s := mgr.Session(req.ID); s != nil {
				for _, snap := range s.Active.Comps {
					pr := snap.Comp.Peer
					if pr != req.Source && pr != req.Dest {
						c.Net.Fail(pr)
						break
					}
				}
			}
		}
		c.Sim.Run(c.Sim.Now() + 60*time.Second)
		replaced, recoveries := 0, 0
		for _, p := range c.Peers {
			if p.Recovery == nil {
				continue
			}
			st := p.Recovery.Stats()
			switchovers += st.Switchovers
			recoveries += st.Switchovers + st.Reactives
			replaced += st.ComponentsReplaced
		}
		return switchovers, met.Switchover.Mean(), replaced, recoveries
	}
	for i := 0; i < b.N; i++ {
		so, rt, rep, recov := run(false)
		b.ReportMetric(float64(so), "switchovers-overlap")
		b.ReportMetric(rt, "recovery-ms-overlap")
		if recov > 0 {
			b.ReportMetric(float64(rep)/float64(recov), "replaced/recovery-overlap")
		}
		so2, rt2, rep2, recov2 := run(true)
		b.ReportMetric(float64(so2), "switchovers-disjoint")
		b.ReportMetric(rt2, "recovery-ms-disjoint")
		if recov2 > 0 {
			b.ReportMetric(float64(rep2)/float64(recov2), "replaced/recovery-disjoint")
		}
	}
}

// BenchmarkAblationSoftReservation measures conflicting admissions with the
// probe-time soft reservation disabled.
func BenchmarkAblationSoftReservation(b *testing.B) {
	run := func(disable bool) float64 {
		cfg := bcp.DefaultConfig()
		cfg.DisableSoftReservation = disable
		var tiny qos.Resources
		tiny[qos.CPU] = 1
		tiny[qos.Memory] = 10
		c := cluster.New(cluster.Options{
			Seed: 74, IPNodes: 400, Peers: 50, Capacity: tiny,
			MinComps: 1, MaxComps: 1, Catalog: []string{"a", "b", "c"},
			BCP: cfg,
		})
		gen := workload.NewGenerator(workload.Config{
			Catalog: []string{"a", "b", "c"}, Peers: 50,
			MinFuncs: 2, MaxFuncs: 2, Budget: 12,
			DelayReqMin: 4000, DelayReqMax: 8000,
		}, newSeededRng(74))
		// Launch bursts of concurrent requests contending for the same
		// scarce components.
		fails := 0
		for burst := 0; burst < 5; burst++ {
			for k := 0; k < 4; k++ {
				req := gen.Next()
				req.Bandwidth = 5 // contention is for the peers' one CPU unit, not for links
				eng := c.Peers[int(req.Source)].Engine
				eng.Compose(req, func(res bcp.Result) {
					if !res.Ok {
						fails++
					} else {
						c.Sim.Schedule(5*time.Second, func() { eng.Teardown(res.Best) })
					}
				})
			}
			c.Sim.Run(c.Sim.Now() + 60*time.Second)
		}
		return float64(fails)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "setup-failures-with-soft")
		b.ReportMetric(run(true), "setup-failures-without")
	}
}

// --- Microbenchmarks ----------------------------------------------------

// BenchmarkBCPCompose measures one full composition on a 60-peer overlay.
func BenchmarkBCPCompose(b *testing.B) {
	c, gen := ablationCluster(75, bcp.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
}

// BenchmarkRecoveryTick measures one maintenance interval of one established
// session with its backups: the walk along the active graph — every third
// interval on through the backups' own peers — its one pong and its one
// deadline check. -benchmem is the figure TestRecoveryTickAllocBudget
// ratchets.
func BenchmarkRecoveryTick(b *testing.B) {
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{Seed: 73, IPNodes: 400, Peers: 80, Recovery: &rc})
	gen := workload.NewGenerator(workload.Config{
		Catalog: c.FunctionsByReplicas()[:5], Peers: 80,
		MinFuncs: 3, MaxFuncs: 3, Budget: 60,
		DelayReqMin: 4000, DelayReqMax: 8000,
	}, newSeededRng(73))
	req := gen.Next()
	p := c.Peers[int(req.Source)]
	backups := -1
	p.Engine.Compose(req, func(res bcp.Result) {
		if res.Ok {
			backups = len(p.Recovery.Establish(req, res).Backups)
		}
	})
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if backups < 1 {
		b.Fatalf("no session with backups to maintain (%d)", backups)
	}
	const probeInterval = 2 * time.Second // recovery's maintenance period
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sim.Run(c.Sim.Now() + probeInterval)
	}
	b.ReportMetric(float64(backups), "backups")
}

// BenchmarkSimEventDispatch measures the steady-state Schedule→fire cycle
// of the event queue with a warm freelist, on an empty queue and on one
// holding 6,400 events due over the next 64 ms (federate's peak queue is
// 6,329 at seed 1), each cycle scheduling one more such event: no allocation
// per cycle (the returned Timer is the pooled event and its generation).
func BenchmarkSimEventDispatch(b *testing.B) {
	for _, pending := range []int{0, 6400} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			sim := simnet.NewSim()
			fn := func() {}
			for i := 0; i < 64; i++ {
				sim.Schedule(0, fn)
			}
			sim.RunUntilIdle()
			rng := newSeededRng(81)
			delays := make([]time.Duration, 4096)
			for i := range delays {
				delays[i] = time.Microsecond
				if pending > 0 {
					delays[i] = time.Duration(rng.Int63n(int64(64 * time.Millisecond)))
				}
			}
			for i := 0; i <= pending; i++ { // one more, then a cycle: the queue at its size
				sim.Schedule(delays[i%len(delays)], fn)
			}
			sim.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Schedule(delays[i%len(delays)], fn)
				sim.Step()
			}
		})
	}
}

// BenchmarkTopologyPaperScale generates the paper's full 10,000-node IP
// network and builds a 1,000-peer overlay on it — mesh search plus latency
// matrix, the construction cost every -paper experiment and the steady
// workload's setup pay up front. Packing the generator's edge list straight
// into CSR, the truncated mesh searches and the fanned-out peer-pair sweep
// keep this well under a second.
func BenchmarkTopologyPaperScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := newSeededRng(79)
		g := topology.GeneratePowerLaw(10000, 2, 2, 30, rng)
		ov := topology.BuildOverlay(g, topology.OverlayConfig{NumPeers: 1000, Degree: 4}, rng)
		if ov.N() != 1000 {
			b.Fatal("overlay incomplete")
		}
	}
}

// BenchmarkPairDistancesPaperScale is the peer-latency pass of that build on
// its own: 1,000 sources swept over the 10,000-node graph's bypass view, most
// of what a world build costs once the graph exists. A sweep scans only the
// ~5,000 nodes that are not relays, so ns/op × workers ÷ 1,000 is one such
// sweep plus its relay reads, not a scan of every node; run it at -cpu 1 for
// the unfanned cost. allocs/op is the matrix, the view plus per-worker
// scratch.
func BenchmarkPairDistancesPaperScale(b *testing.B) {
	rng := newSeededRng(79)
	g := topology.GeneratePowerLaw(10000, 2, 2, 30, rng)
	peers := rng.Perm(g.N())[:1000]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lat := g.PairDistances(peers); len(lat) != len(peers) {
			b.Fatal("matrix incomplete")
		}
	}
}

// BenchmarkGeneratePowerLaw300k generates the scale workload's IP graph:
// 300,000 nodes drawn by preferential attachment into an edge list and packed
// into CSR, with the per-row weight order the mesh searches read.
func BenchmarkGeneratePowerLaw300k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := topology.GeneratePowerLaw(300000, 2, 2, 30, newSeededRng(79)); g.N() != 300000 {
			b.Fatal("graph incomplete")
		}
	}
}

// BenchmarkCompactMesh30k builds the scale workload's overlay — 30,000 peers
// wired by truncated nearest-peer searches over a 300,000-node graph, fanned
// over the available cores — on a graph generated once outside the timer.
func BenchmarkCompactMesh30k(b *testing.B) {
	g := topology.GeneratePowerLaw(300000, 2, 2, 30, newSeededRng(79))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov := topology.BuildOverlay(g, topology.OverlayConfig{
			NumPeers: 30000, Degree: 4, Compact: true,
		}, newSeededRng(80))
		if ov.N() != 30000 {
			b.Fatal("overlay incomplete")
		}
	}
}

// BenchmarkRouteTables30k is the scale workload's route plane: on its compact
// overlay — 30,000 peers over a 300,000-node graph, built outside the timer —
// one op routes once from each of 200 distinct sources. The default cache
// holds 69 tables at this size, so the sources cycling through it miss every
// time and an op is 200 target-bounded queries: each starts its source's
// sweep and settles it only until the target is final.
func BenchmarkRouteTables30k(b *testing.B) {
	rng := newSeededRng(79)
	g := topology.GeneratePowerLaw(300000, 2, 2, 30, rng)
	ov := topology.BuildOverlay(g, topology.OverlayConfig{
		NumPeers: 30000, Degree: 4, CapMin: 2000, CapMax: 10000, Compact: true,
	}, rng)
	srcs := rng.Perm(ov.N())[:200]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, src := range srcs {
			ov.Route(src, srcs[(j+1)%len(srcs)])
		}
	}
}

// BenchmarkRouteOracle1k replays the route-oracle traffic BCP sends on the
// §6.1 world's full overlay (1,000 peers over 10,000 IP nodes): bursts of 20
// PathLatency calls from one source to uniform targets, the latency of each
// next-hop candidate of a probe, every fifth followed by the PathCost of a
// candidate that passed the latency bound (18–50 % of them do on the
// composition workloads), and one AllocBandwidth/ReleaseBandwidth pair every
// 100 queries. An op is 100,000 queries from a cold cache, which holds every
// source at this size: about a thousand sweeps started, the rest hits and
// resumes, the composition workloads' mix.
func BenchmarkRouteOracle1k(b *testing.B) {
	rng := newSeededRng(79)
	g := topology.GeneratePowerLaw(10000, 2, 2, 30, rng)
	const queries, burst, pairEvery = 100_000, 20, 100
	src, dst := make([]int, queries), make([]int, queries)
	for q := range src {
		src[q], dst[q] = rng.Intn(1000), rng.Intn(1000)
		if q%burst != 0 {
			src[q] = src[q-1]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ov := topology.BuildOverlay(g, topology.OverlayConfig{NumPeers: 1000, Degree: 4}, newSeededRng(80))
		b.StartTimer()
		for q := range src {
			ov.PathLatency(src[q], dst[q])
			if q%5 == 0 {
				ov.PathCost(src[q], dst[q])
			}
			if q%pairEvery == pairEvery-1 && ov.AllocBandwidth(src[q], dst[q], 100) {
				ov.ReleaseBandwidth(src[q], dst[q], 100)
			}
		}
	}
}

// BenchmarkDHTLookup measures a single decentralized discovery lookup.
func BenchmarkDHTLookup(b *testing.B) {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(time.Millisecond), newSeededRng(76))
	nodes := make([]*dht.Node, 200)
	for i := range nodes {
		nodes[i] = dht.New(nw.AddNode(p2p.NodeID(i)), nw.Alive)
	}
	dht.Build(nodes)
	nodes[0].Put(dht.Key("bench"), "x", 64)
	sim.RunUntilIdle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%200].Get(dht.Key("bench"), time.Second, func([]any, int, bool) {})
		sim.RunUntilIdle()
	}
}

// BenchmarkPatternEnumeration measures building a chain with three
// commutation links, which derives its patterns and their branches.
func BenchmarkPatternEnumeration(b *testing.B) {
	fb := fgraph.NewBuilder()
	for i := 0; i < 6; i++ {
		fb.AddFunction("f" + itoa(i))
	}
	for i := 0; i < 5; i++ {
		fb.AddDependency(i, i+1)
	}
	fb.AddCommutation(1, 2)
	fb.AddCommutation(3, 4)
	fb.AddCommutation(4, 5)
	for i := 0; i < b.N; i++ {
		g, err := fb.Build()
		if err != nil {
			b.Fatal(err)
		}
		if got := len(g.Patterns()); got != fgraph.MaxPatterns {
			b.Fatalf("%d patterns, want %d", got, fgraph.MaxPatterns)
		}
	}
}

// BenchmarkOverlayRoute measures overlay-layer shortest-path routing with
// the per-source cache.
func BenchmarkOverlayRoute(b *testing.B) {
	rng := newSeededRng(77)
	g := topology.GeneratePowerLaw(2000, 2, 2, 30, rng)
	ov := topology.BuildOverlay(g, topology.OverlayConfig{NumPeers: 300, Degree: 4}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ov.Route(i%300, (i*7+1)%300); !ok {
			b.Fatal("no route")
		}
	}
}

// BenchmarkCostFunction measures one ψ evaluation.
func BenchmarkCostFunction(b *testing.B) {
	fg := fgraph.Linear("a", "b", "c")
	var avail qos.Resources
	avail[qos.CPU] = 10
	avail[qos.Memory] = 100
	g := &service.Graph{Pattern: fg, Comps: make([]service.Snapshot, 3)}
	for i := 0; i < 3; i++ {
		g.Comps[i] = service.Snapshot{
			Comp:  service.Component{ID: "c" + itoa(i), Peer: p2p.NodeID(i)},
			Avail: avail,
		}
		g.Links = append(g.Links, service.LinkSnapshot{FromFn: i - 1, ToFn: i, BandAvail: 1000})
	}
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	req := &service.Request{FGraph: fg, Res: res, Bandwidth: 100, Budget: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := g.Cost(req); c <= 0 {
			b.Fatal("bad cost")
		}
	}
}

// benchHost is a construction-only transport stub: dht.Build never sends or
// schedules, so ring-construction benchmarks skip the simulator entirely.
type benchHost struct{ id p2p.NodeID }

func (h *benchHost) ID() p2p.NodeID                        { return h.id }
func (h *benchHost) Now() time.Duration                    { return 0 }
func (h *benchHost) Send(p2p.Message)                      {}
func (h *benchHost) After(time.Duration, func()) p2p.Timer { return p2p.Timer{} }
func (h *benchHost) Rand() *rand.Rand                      { return nil }
func (h *benchHost) Handle(string, p2p.Handler)            {}

// BenchmarkDHTBuildRing measures the sorted-ring static construction at 1k,
// 10k, 30k (the benchmark's scale ring) and 100k nodes. Node creation is
// excluded from the timer: the op is construction, not SHA-1 identifier
// derivation. Leaf sets and the top-level table buckets fan out over
// GOMAXPROCS, so run it at -cpu 1,2 to see both.
func BenchmarkDHTBuildRing(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"10k", 10000}, {"30k", 30000}, {"100k", 100000}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nodes := make([]*dht.Node, size.n)
				for j := range nodes {
					nodes[j] = dht.New(&benchHost{id: p2p.NodeID(j)}, nil)
				}
				b.StartTimer()
				dht.Build(nodes)
			}
		})
	}
}

// BenchmarkOverlayRouteEvict measures Route in the post-eviction regime: the
// cache bound is far below the rotating source count, so every call is a
// cache miss that evicts the LRU table and sweeps the source's whole route
// table into its arrays.
func BenchmarkOverlayRouteEvict(b *testing.B) {
	rng := newSeededRng(81)
	g := topology.GeneratePowerLaw(2000, 2, 2, 30, rng)
	ov := topology.BuildOverlay(g, topology.OverlayConfig{
		NumPeers: 300, Degree: 4, RouteCacheSize: 8,
	}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ov.Route(i%300, (i*7+1)%300); !ok {
			b.Fatal("no route")
		}
	}
}

// BenchmarkTopologyGenerate100k is the headline capacity number: a
// 100,000-node power-law IP network frozen into the CSR representation plus a
// 10,000-peer compact-mode overlay (no peer-pair latency matrix) per
// iteration.
func BenchmarkTopologyGenerate100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := newSeededRng(79)
		g := topology.GeneratePowerLaw(100000, 2, 2, 30, rng)
		topology.BuildOverlay(g, topology.OverlayConfig{
			NumPeers: 10000, Degree: 4, Compact: true,
		}, rng)
	}
}

// BenchmarkObsEmit measures encoding one event into a JSONL sink.
func BenchmarkObsEmit(b *testing.B) {
	sink := obs.NewJSONLSink(io.Discard)
	ev := obs.ProbeSent(time.Millisecond, 3, 42, 7, "fn1", "p7/fn1.0", 10, 2, 12345, 12344)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Emit(ev)
	}
}

// BenchmarkObsDisabled measures the disabled-tracer fast path: the nil check
// plus event construction that instrumented call sites skip entirely.
func BenchmarkObsDisabled(b *testing.B) {
	var trace obs.Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if trace != nil {
			trace.Emit(obs.ProbeSent(time.Millisecond, 3, 42, 7, "fn1", "p7/fn1.0", 10, 2, 12345, 12344))
		}
	}
}

// --- helpers -------------------------------------------------------------

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

func newSeededRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
