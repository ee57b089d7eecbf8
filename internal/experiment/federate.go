package experiment

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// FederateConfig parameterizes the federation sweep: domain count × gateway
// density × fault scenario, with every cell replaying the same request
// schedule through the two-phase cross-domain commit and then draining until
// every reservation must have resolved.
type FederateConfig struct {
	World
	// Requests is the number of compositions injected per cell.
	Requests int
	// Window is the arrival window; requests land uniformly inside it.
	Window time.Duration
	// MinFuncs/MaxFuncs bound the function count per request.
	MinFuncs, MaxFuncs int
	// Budget is the probing budget per request (split across segments).
	Budget int
	// Hold/Life override the federation prepare-hold window and committed
	// session lifetime (zero = federation defaults).
	Hold, Life time.Duration
	// Domains and Gateways are the swept axes.
	Domains  []int
	Gateways []int
	// Scenarios lists the per-cell fault scenarios: "none", "loss=<p>" (any
	// fault-spec string), "partition" (domain 0 cut off during the commit
	// window), "gwcrash" (the last domain's last gateway fails mid-window),
	// "coordcrash" (domain 1's coordinator fails mid-window).
	Scenarios []string
}

// DefaultFederateConfig returns the laptop-scale configuration: 20 cells.
func DefaultFederateConfig() FederateConfig {
	return FederateConfig{
		World:     World{Sweep: Sweep{Seed: 1}, IPNodes: 600, Peers: 72, Functions: 18},
		Requests:  40,
		Window:    20 * time.Second,
		MinFuncs:  2,
		MaxFuncs:  4,
		Budget:    8,
		Hold:      15 * time.Second,
		Life:      15 * time.Second,
		Domains:   []int{2, 4},
		Gateways:  []int{1, 2},
		Scenarios: []string{"none", "loss=0.1", "partition", "gwcrash", "coordcrash"},
	}
}

// PaperFederateConfig scales the sweep up toward the paper's overlay
// dimensions. Expect a long run.
func PaperFederateConfig() FederateConfig {
	c := DefaultFederateConfig()
	c.IPNodes = 2000
	c.Peers = 240
	c.Functions = 48
	c.Requests = 200
	c.Window = 60 * time.Second
	c.Domains = []int{2, 4, 8}
	return c
}

// FederatePoint is one (domains, gateways, scenario) cell.
type FederatePoint struct {
	Domains  int
	Gateways int
	Scenario string
	// XDomainShare is the fraction of injected requests whose function set
	// spans more than one domain (ground truth from the catalogue homing).
	XDomainShare float64
	// Success is the overall composition success ratio; XDomainSuccess the
	// ratio over the cross-domain subset.
	Success        float64
	XDomainSuccess float64
	// CommitP50/P99 are prepare-to-full-ack latency percentiles in ms over
	// successful cross-domain sessions.
	CommitP50, CommitP99 float64
	// Prepares/Commits/Aborts aggregate the gateways' 2PC ledgers (Aborts
	// includes presumed-abort expiries).
	Prepares, Commits, Aborts int64
	// Orphans counts live peers left holding any reservation after the
	// drain — the atomic-commit acceptance figure, which must be zero.
	Orphans int
}

// FederateResult is the full sweep.
type FederateResult struct {
	Points []FederatePoint
	Table  *metrics.Table
}

// Federate sweeps domain count × gateway density × fault scenario over the
// federated deployment. Every cell drains long enough that client give-up,
// hold expiry, committed-session end of life, and the segments' leases have
// all fired, so any reservation still held afterwards is a real leak.
func Federate(cfg FederateConfig) FederateResult {
	type cellKey struct {
		d, g int
		sc   string
	}
	var cells []cellKey
	for _, d := range cfg.Domains {
		for _, g := range cfg.Gateways {
			for _, sc := range cfg.Scenarios {
				cells = append(cells, cellKey{d, g, sc})
			}
		}
	}
	points := make([]FederatePoint, len(cells))
	runCells(len(points), cfg.Parallel, cfg.Trace, func(i int, tracer obs.Tracer) {
		points[i] = federateRun(cfg, cells[i].d, cells[i].g, cells[i].sc, tracer)
	})

	var out FederateResult
	out.Points = points
	t := metrics.NewTable("Federate: cross-domain composition with atomic session commit",
		"domains", "gateways", "scenario", "xd share", "success", "xd success",
		"commit p50 ms", "commit p99 ms", "prepares", "commits", "aborts", "orphans")
	for _, p := range points {
		t.AddRow(p.Domains, p.Gateways, p.Scenario, p.XDomainShare, p.Success,
			p.XDomainSuccess, p.CommitP50, p.CommitP99, p.Prepares, p.Commits,
			p.Aborts, p.Orphans)
	}
	out.Table = t
	return out
}

// federateRun replays one cell. tracer is the cell's trace destination (a
// private buffer under the parallel runner).
func federateRun(cfg FederateConfig, domains, gateways int, scenario string, tracer obs.Tracer) FederatePoint {
	opts := cfg.options(tracer)
	opts.Domains = &federation.Spec{Domains: domains, Gateways: gateways,
		Hold: cfg.Hold, Life: cfg.Life}
	c := cluster.New(opts)
	dom := c.DomainPlan()
	catalog := opts.Catalog

	// Every function has one home domain, the plan's, so a request's domain
	// span is known at injection time — the denominator of the cross-domain
	// success ratio.
	home := make(map[string]int, len(catalog))
	for d := range dom.NumDomains {
		for _, fn := range dom.CatalogFor(d, catalog) {
			home[fn] = d
		}
	}
	gen := workload.NewGenerator(workload.Config{
		Catalog:  catalog,
		Peers:    cfg.Peers,
		MinFuncs: cfg.MinFuncs,
		MaxFuncs: cfg.MaxFuncs,
		Budget:   cfg.Budget,
	}, newRng(cfg.Seed+100))

	switch {
	case scenario == "partition":
		// Cut domain 0 off from every other domain across the middle of the
		// arrival window — prepares and commit decisions in flight when the
		// partition lands must resolve by presumed abort, and reservations
		// must drain after the heal.
		c.ApplyFaults(simnet.FaultPlan{Seed: 3, Partitions: []simnet.Partition{
			dom.DomainPartition(0, cfg.Window/4, 3*cfg.Window/4),
		}})
	case scenario == "gwcrash":
		gws := dom.Gateways(domains - 1)
		victim := gws[len(gws)-1]
		c.Sim.Schedule(cfg.Window/3, func() { c.Net.Fail(victim) })
	case scenario == "coordcrash":
		victim := dom.Coordinator(1)
		c.Sim.Schedule(cfg.Window/3, func() { c.Net.Fail(victim) })
	case scenario != "none":
		fs, err := simnet.ParseFaultSpec(scenario)
		if err != nil {
			panic("experiment: federate scenario " + scenario + ": " + err.Error())
		}
		c.ApplyFaultSpec(fs)
	}

	var ratio, xdRatio, xdShare metrics.Ratio
	var commitLat metrics.Sample
	xd := make([]bool, cfg.Requests)
	plan := cluster.Plan{Horizon: cfg.Window}
	arrivalRng := newRng(cfg.Seed + 200)
	for k := range xd {
		req := gen.Next()
		xd[k] = spansDomains(req.FGraph.Functions(), home)
		xdShare.Add(xd[k])
		at := time.Duration(arrivalRng.Float64() * float64(cfg.Window))
		plan.Arrivals = append(plan.Arrivals, cluster.Arrival{At: at, Req: req})
	}
	// A request whose source crashed before its instant counts as a loss.
	c.Start(plan, func(i int, o cluster.Outcome) {
		ratio.Add(o.Ok)
		if xd[i] {
			xdRatio.Add(o.Ok)
		}
		if o.Ok && o.Domains > 1 {
			commitLat.AddDuration(o.CommitLatency)
		}
	}).Finish()

	ledger := c.Fed.TotalLedger()
	return FederatePoint{
		Domains:        domains,
		Gateways:       gateways,
		Scenario:       scenario,
		XDomainShare:   xdShare.Value(),
		Success:        ratio.Value(),
		XDomainSuccess: xdRatio.Value(),
		CommitP50:      commitLat.Percentile(50),
		CommitP99:      commitLat.Percentile(99),
		Prepares:       ledger.Prepares,
		Commits:        ledger.Commits,
		Aborts:         ledger.Aborts + ledger.Expires,
		Orphans:        c.Orphans(),
	}
}

// spansDomains reports whether a function set crosses domain boundaries,
// given each function's home domain.
func spansDomains(fns []string, home map[string]int) bool {
	seen := -1
	for _, fn := range fns {
		d := home[fn]
		if seen >= 0 && d != seen {
			return true
		}
		seen = d
	}
	return false
}
