package experiment

import (
	"time"

	"repro/internal/baselines"
	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/workload"
)

// OpenLoop is what the open-loop figures (8, scale, stress) share: the §6.1
// world and the shape of the arrival schedule replayed over it.
type OpenLoop struct {
	World
	// TimeUnits is the number of workload time units simulated per cell.
	TimeUnits int
	// TimeUnit is the simulated duration of one workload time unit.
	TimeUnit time.Duration
	// SessionLife is how long an admitted session holds its resources.
	SessionLife time.Duration
	// MinFuncs/MaxFuncs bound the function count per request.
	MinFuncs, MaxFuncs int
	// Capacity is the per-peer resource capacity (tightened vs. the cluster
	// default so contention actually materializes inside the sweep).
	Capacity qos.Resources
	// DelayReqMin/Max bound the sampled end-to-end delay requirement (ms).
	DelayReqMin, DelayReqMax float64
}

// algorithm is one row of the composition-algorithm table the open-loop
// figures draw their series from.
type algorithm struct {
	name string
	// pick selects a service graph instantaneously from the global view and
	// the cell admits it through the peers' ledgers; nil composes through
	// BCP, paying discovery, probing, and setup latency.
	pick func(w baselines.World, req *service.Request, intn func(int) int) (*service.Graph, bool)
	// probeFrac, when positive, sets each request's probing budget to that
	// fraction of the optimal (exhaustive) probe count instead of the cell's.
	probeFrac float64
	// aware switches the cell's deployment to load-aware selection and
	// shedding at the cell's threshold.
	aware bool
}

var (
	algOptimal = algorithm{name: "optimal", pick: func(w baselines.World, req *service.Request, _ func(int) int) (*service.Graph, bool) {
		res := baselines.Optimal(w, req, service.DefaultWeights(), baselines.MinCost)
		return res.Best, res.Best != nil
	}}
	algProbing20 = algorithm{name: "probing-0.2", probeFrac: 0.2}
	algProbing10 = algorithm{name: "probing-0.1", probeFrac: 0.1}
	algRandom    = algorithm{name: "random", pick: func(w baselines.World, req *service.Request, intn func(int) int) (*service.Graph, bool) {
		return baselines.Random(w, req, intn)
	}}
	algStatic = algorithm{name: "static", pick: func(w baselines.World, req *service.Request, _ func(int) int) (*service.Graph, bool) {
		return baselines.Static(w, req)
	}}
	algGreedy = algorithm{name: "greedy", pick: func(w baselines.World, req *service.Request, _ func(int) int) (*service.Graph, bool) {
		return baselines.Greedy(w, req)
	}}
	algBacktracking = algorithm{name: "backtracking", pick: func(w baselines.World, req *service.Request, _ func(int) int) (*service.Graph, bool) {
		g, _, ok := baselines.Backtracking(w, req, service.DefaultWeights(), baselines.BacktrackOptions{})
		return g, ok
	}}
	algCommunity = algorithm{name: "community", pick: func(w baselines.World, req *service.Request, _ func(int) int) (*service.Graph, bool) {
		return baselines.Community(w, req, baselines.DefaultCommunities)
	}}
	algBlind     = algorithm{name: "blind"}
	algSpiderNet = algorithm{name: "spidernet", aware: true}

	// algorithms is the whole table; each figure lists the rows it draws.
	algorithms = []algorithm{algOptimal, algProbing20, algProbing10, algRandom, algStatic,
		algGreedy, algBacktracking, algCommunity, algBlind, algSpiderNet}
)

// loadCell is one replay of one arrival schedule through one algorithm. The
// request schedule (arrival instants, request contents) and the churn
// schedule are pure functions of every field but alg, so all algorithms of a
// sweep face exactly the same adversity.
type loadCell struct {
	OpenLoop
	// scenario shapes popularity, offered rate and churn; nil is the flat
	// uniform schedule.
	scenario *workload.Scenario
	// perUnit is the offered load (requests per time unit) before the
	// scenario's rate curve scales it.
	perUnit int
	// budget is the probing budget per request.
	budget int
	// model is the utilization-driven processing delay every peer pays,
	// whatever the algorithm; shed is the threshold an aware algorithm sheds
	// at.
	model qos.LoadModel
	shed  float64
	// recoverAfter is how many time units a churn-storm victim stays down.
	recoverAfter int
	alg          algorithm
	// issued, when non-nil, observes every request as it is issued (the
	// probe of the schedule-fairness test).
	issued func(at time.Duration, req *service.Request)
}

// loadResult is what one cell measured.
type loadResult struct {
	// Offered counts the requests actually issued (arrivals whose source is
	// down are skipped).
	Offered int
	// Success is the composition success ratio over offered requests.
	Success float64
	// Setup samples setup latency in ms over successful BCP compositions
	// (failures would only measure the collect timeout; the global-view
	// algorithms select instantaneously and leave it empty).
	Setup metrics.Sample
	// PeakUtil samples every peer's peak utilization over the run.
	PeakUtil metrics.Sample
	// Shed counts probes declined by overload shedding.
	Shed int64
}

// runLoadCell builds the cell's deployment and replays its schedule. tracer is
// the cell's trace destination (a private spill under the parallel runner, the
// shared sink when serial, nil when off). Counters are per cell — Shed needs
// them apart — and fold into the figure's registry when it has one.
func runLoadCell(cell loadCell, tracer obs.Tracer) loadResult {
	opts := cell.options(tracer)
	opts.Capacity = cell.Capacity
	// Soft reservations need to outlive probe collection plus the reverse
	// ACK, but nothing more: losing-path reservations release only by expiry,
	// and holds that linger starve concurrent requests, inflate committed
	// utilization and make the shedding plane refuse work the peer could
	// serve. Late ACKs whose reservation expired fall back to the shed-gated
	// direct admission.
	opts.BCP = bcp.DefaultConfig()
	opts.BCP.SoftTimeout = 2500 * time.Millisecond
	opts.Load = &cluster.LoadOptions{Model: cell.model, Aware: cell.alg.aware}
	if cell.alg.aware {
		opts.Load.Shed = cell.shed
	}
	opts.Obs = obs.NewRegistry()
	c := cluster.New(opts)
	w := c.World()
	gen := workload.NewGenerator(workload.Config{
		Catalog:     opts.Catalog,
		Peers:       cell.Peers,
		MinFuncs:    cell.MinFuncs,
		MaxFuncs:    cell.MaxFuncs,
		DelayReqMin: cell.DelayReqMin,
		DelayReqMax: cell.DelayReqMax,
		Scenario:    cell.scenario,
	}, newRng(cell.Seed+100))

	var res loadResult
	var ratio metrics.Ratio
	issue := func(req *service.Request) {
		if cell.alg.pick != nil {
			g, ok := cell.alg.pick(w, req, c.Rng.Intn)
			ok = ok && g.Qualified(req) && baselines.Admit(w, g)
			ratio.Add(ok)
			if ok {
				c.Sim.Schedule(cell.SessionLife, func() { baselines.Release(w, g) })
			}
			return
		}
		if cell.alg.probeFrac > 0 {
			req.Budget = max(1, int(cell.alg.probeFrac*float64(baselines.OptimalProbeCount(w, req))))
		}
		start := c.Sim.Now()
		eng := c.Peers[int(req.Source)].Engine
		eng.Compose(req, func(r bcp.Result) {
			ratio.Add(r.Ok)
			if r.Ok {
				res.Setup.AddDuration(c.Sim.Now() - start)
				c.Sim.Schedule(cell.SessionLife, func() { eng.Teardown(r.Best) })
			}
		})
	}

	// Events fire in insertion order on ties, so the order below — arrivals,
	// churn, utilization sampler — is part of every figure's output.
	arrivalRng := newRng(cell.Seed + 200)
	for unit := 0; unit < cell.TimeUnits; unit++ {
		unitStart := time.Duration(unit) * cell.TimeUnit
		n := cell.perUnit
		if cell.scenario != nil {
			// The scenario's rate curve (diurnal sine, flash surge) scales the
			// offered load, evaluated at the unit boundary so the count is a
			// deterministic function of the scenario alone.
			n = int(float64(n)*cell.scenario.RateMult(unitStart, opts.Catalog) + 0.5)
		}
		for k := 0; k < n; k++ {
			at := unitStart + time.Duration(arrivalRng.Float64()*float64(cell.TimeUnit))
			req := gen.NextAt(at)
			req.Budget = cell.budget
			c.Sim.Schedule(at-c.Sim.Now(), func() {
				// Dead sources cannot issue requests; the skip depends only
				// on the churn schedule, so it is identical across algorithms.
				if !c.Net.Alive(req.Source) {
					return
				}
				res.Offered++
				if cell.issued != nil {
					cell.issued(c.Sim.Now(), req)
				}
				issue(req)
			})
		}
	}

	// Churn storm: during the scenario's churn window, ChurnRate of the
	// peers fails at every unit boundary and returns recoverAfter units
	// later. The victim stream is seeded from the scenario seed, isolated
	// from the workload and cluster streams.
	if scn := cell.scenario; scn != nil && scn.ChurnRate > 0 {
		churnRng := newRng(cell.Seed + 400 + scn.Seed)
		for unit := 0; unit < cell.TimeUnits; unit++ {
			unitStart := time.Duration(unit) * cell.TimeUnit
			if scn.ChurnActive(unitStart) {
				c.Sim.Schedule(unitStart-c.Sim.Now(), func() {
					c.ChurnStep(churnRng, scn.ChurnRate, time.Duration(cell.recoverAfter)*cell.TimeUnit)
				})
			}
		}
	}

	// Sample every peer's utilization twice per time unit across arrivals
	// plus the session drain, keeping each peer's peak (the hotspot figure
	// heavy tails and flash crowds are designed to produce).
	peak := make([]float64, len(c.Peers))
	horizon := time.Duration(cell.TimeUnits)*cell.TimeUnit + cell.SessionLife
	for at := time.Duration(0); at <= horizon; at += cell.TimeUnit / 2 {
		c.Sim.Schedule(at, func() {
			for i, p := range c.Peers {
				peak[i] = max(peak[i], p.Ledger.Utilization())
			}
		})
	}

	// Drain: run past the last arrival plus composition and session time.
	c.Sim.Run(horizon + 30*time.Second)

	for _, u := range peak {
		res.PeakUtil.Add(u)
	}
	res.Success = ratio.Value()
	res.Shed = opts.Obs.Totals().ProbesShed
	if cell.Counters != nil {
		cell.Counters.Merge(opts.Obs)
	}
	return res
}
