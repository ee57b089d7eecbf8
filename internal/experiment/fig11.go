package experiment

import (
	"time"

	"repro/internal/baselines"
	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// Fig11Config parameterizes the delay-vs-probing-budget experiment (§6.2):
// three-function requests on a deployment with one media component per peer
// (average replication ≈ peers/6 ≈ 17 for 102 peers, so the optimal
// algorithm needs ≈17³ = 4913 probes).
type Fig11Config struct {
	Sweep
	IPNodes int
	Peers   int
	// Budgets is the x axis (number of probes allowed per request).
	Budgets []int
	// Requests is how many compositions are averaged per budget.
	Requests int
	// Funcs is the number of functions per request (3 in the paper).
	Funcs int
}

// DefaultFig11Config mirrors the paper's prototype dimensions: 102 peers,
// six media functions, one component per peer.
func DefaultFig11Config() Fig11Config {
	return Fig11Config{
		Sweep:    Sweep{Seed: 1},
		IPNodes:  1000,
		Peers:    102,
		Budgets:  []int{10, 50, 100, 200, 300, 400, 500, 1000},
		Requests: 15,
		Funcs:    3,
	}
}

// PaperFig11Config increases the averaging to 100 requests per budget.
func PaperFig11Config() Fig11Config {
	c := DefaultFig11Config()
	c.Requests = 100
	return c
}

// Fig11Point is one budget level: the average end-to-end delay of the
// service graphs each approach discovers.
type Fig11Point struct {
	Budget    int
	Random    float64 // ms
	SpiderNet float64 // ms
	Optimal   float64 // ms
	// OptimalProbes is the exhaustive probe count (≈4913 in the paper),
	// constant across budgets; reported for the overhead comparison.
	OptimalProbes int
}

// Fig11Result is the full figure.
type Fig11Result struct {
	Points []Fig11Point
	Table  *metrics.Table
}

// Fig11 reproduces Figure 11: average service delay of the composition
// found by the random algorithm, SpiderNet under a growing probing budget,
// and the optimal (exhaustive) algorithm. All approaches minimize
// end-to-end delay, the paper's objective for this experiment.
func Fig11(cfg Fig11Config) Fig11Result {
	// One cell per probing budget; each builds its own identically seeded
	// deployment.
	points := make([]Fig11Point, len(cfg.Budgets))
	runCells(len(points), cfg.Parallel, cfg.Trace, func(i int, tracer obs.Tracer) {
		points[i] = fig11Point(cfg, cfg.Budgets[i], tracer)
	})

	var out Fig11Result
	out.Points = points
	t := metrics.NewTable("Figure 11: average delay (ms) vs. probing budget — 3 functions",
		"budget", "random", "spidernet", "optimal", "optimal-probes")
	for _, p := range out.Points {
		t.AddRow(p.Budget, p.Random, p.SpiderNet, p.Optimal, p.OptimalProbes)
	}
	out.Table = t
	return out
}

func fig11Point(cfg Fig11Config, budget int, tracer obs.Tracer) Fig11Point {
	// Fresh, identically seeded deployment per budget level: one media
	// component per peer, generous capacity (the experiment studies delay,
	// not admission).
	c := cluster.New(cluster.Options{
		Seed:     cfg.Seed,
		IPNodes:  cfg.IPNodes,
		Peers:    cfg.Peers,
		Catalog:  mediaCatalog(),
		MinComps: 1,
		MaxComps: 1,
		Trace:    tracer,
		Obs:      cfg.Counters,
	})
	for _, p := range c.Peers {
		p.Engine.SelectByDelay = true
	}
	w := c.World()
	rng := newRng(cfg.Seed + 600)

	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	q := qos.Unbounded()
	q[qos.Delay] = 1e7 // effectively unconstrained: the objective is min delay

	var randomD, spiderD, optimalD metrics.Sample
	optProbes := 0
	nextID := uint64(0)
	for r := 0; r < cfg.Requests; r++ {
		fns := c.FunctionsByReplicas()
		if len(fns) < cfg.Funcs {
			break
		}
		idx := rng.Perm(len(fns))[:cfg.Funcs]
		names := make([]string, cfg.Funcs)
		for i, j := range idx {
			names[i] = fns[j]
		}
		src := p2p.NodeID(rng.Intn(cfg.Peers))
		dst := p2p.NodeID(rng.Intn(cfg.Peers))
		for dst == src {
			dst = p2p.NodeID(rng.Intn(cfg.Peers))
		}
		nextID++
		req := &service.Request{
			ID: nextID, FGraph: fgraph.Linear(names...), QoSReq: q, Res: res,
			Bandwidth: 10, Source: src, Dest: dst, Budget: budget,
		}

		// Random baseline.
		if g, ok := baselines.Random(w, req, rng.Intn); ok {
			randomD.Add(g.QoS[qos.Delay])
		}
		// Optimal baseline (exhaustive, min delay).
		opt := baselines.Optimal(w, req, service.DefaultWeights(), baselines.MinDelay)
		if opt.Best != nil {
			optimalD.Add(opt.Best.QoS[qos.Delay])
		}
		if n := baselines.OptimalProbeCount(w, req); n > optProbes {
			optProbes = n
		}
		// SpiderNet under the bounded budget; the session is torn down
		// immediately so every request sees an idle deployment.
		eng := c.Peers[int(src)].Engine
		eng.Compose(req, func(resu bcp.Result) {
			if resu.Ok {
				spiderD.Add(resu.Best.QoS[qos.Delay])
				eng.Teardown(resu.Best)
			}
		})
		c.Sim.Run(c.Sim.Now() + 60*time.Second)
	}
	return Fig11Point{
		Budget:        budget,
		Random:        randomD.Mean(),
		SpiderNet:     spiderD.Mean(),
		Optimal:       optimalD.Mean(),
		OptimalProbes: optProbes,
	}
}

// mediaCatalog returns the six prototype media function names.
func mediaCatalog() []string {
	return []string{
		"weather-ticker", "stock-ticker", "upscale", "downscale",
		"subimage", "requant",
	}
}
