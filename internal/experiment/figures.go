// Package experiment reproduces every figure of the paper's evaluation
// (§6): Figure 8 (success ratio vs. workload), Figure 9 (failure frequency
// under churn), Figure 10 (wide-area session setup time), Figure 11 (service
// delay vs. probing budget), and the centralized-vs-BCP overhead comparison,
// plus the scale, stress, federate and capacity sweeps built on the same
// world. Each figure function returns structured points plus a rendered table
// whose rows mirror the series the paper plots; Figures lists them all for
// spiderbench. Default configurations are scaled to run on a laptop in
// seconds; the Paper* variants use the paper's own dimensions (10,000-node IP
// network, 1,000 peers, 200 functions, ...).
package experiment

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Sweep is the run plumbing every simulated figure's configuration embeds.
type Sweep struct {
	Seed int64
	// Trace, when non-nil, receives every cell's events in cell order;
	// Counters, when non-nil, accumulates every cell's per-node counters.
	Trace    obs.Tracer
	Counters *obs.Registry
	// Parallel is the worker count for the figure's independent cells; <= 1
	// runs them serially. Results and traces are byte-identical at any count.
	Parallel int
}

// World is a Sweep over the §6.1 deployment: a power-law IP network, an
// overlay of peers on it, and a catalogue of synthetic functions.
type World struct {
	Sweep
	IPNodes   int
	Peers     int
	Functions int
}

// options starts the cluster options of one cell of the sweep; tracer is the
// cell's trace destination from runCells.
func (w World) options(tracer obs.Tracer) cluster.Options {
	return cluster.Options{
		Seed:    w.Seed,
		IPNodes: w.IPNodes,
		Peers:   w.Peers,
		Catalog: cluster.Catalog(w.Functions),
		Trace:   tracer,
		Obs:     w.Counters,
	}
}

// newRng returns a seeded random stream independent of the cluster's.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Common is what spiderbench's flags set on whichever figure runs.
type Common struct {
	Sweep
	// Paper selects the paper's full dimensions.
	Paper bool
	// Faults is a parsed -faults spec, nil when none.
	Faults *simnet.FaultSpec
}

// Output is one rendered table of a figure and the stem of its CSV file.
type Output struct {
	CSV   string
	Table *metrics.Table
}

// Figure is one entry of the evaluation: what spiderbench can regenerate, and
// which of its flags the figure takes.
type Figure struct {
	// Name is the -fig value; Title the progress-line label.
	Name, Title string
	// All marks the figures -fig all runs. The capacity sweeps are
	// explicit-only: they measure machine-dependent wall-clock and heap cost,
	// so folding them into "all" would make the default run's duration depend
	// on the host rather than the paper.
	All bool
	// Paper: the figure has paper-scale dimensions (-paper).
	Paper bool
	// Faults: a fault spec can be layered onto the figure (-faults).
	Faults bool
	// Simulated: the figure runs on the virtual clock, so it is deterministic
	// per seed and feeds the event trace and per-layer counters (-trace,
	// -stats). Figure 10 runs on the live runtime; the capacity sweeps
	// run no protocol at all.
	Simulated bool
	// Run regenerates the figure: its tables and an optional footnote line.
	Run func(Common) ([]Output, string)
}

// configure picks a figure's default or paper-scale configuration.
func configure[C any](c Common, def, paper func() C) C {
	if c.Paper {
		return paper()
	}
	return def()
}

func one(csv string, t *metrics.Table) []Output { return []Output{{csv, t}} }

// Figures is the evaluation, in the order -fig all runs it.
var Figures = []Figure{
	{Name: "8", Title: "Figure 8", All: true, Paper: true, Simulated: true,
		Run: func(c Common) ([]Output, string) {
			cfg := configure(c, DefaultFig8Config, PaperFig8Config)
			cfg.Sweep = c.Sweep
			return one("fig8", Fig8(cfg).Table), ""
		}},
	{Name: "9", Title: "Figure 9", All: true, Paper: true, Faults: true, Simulated: true,
		Run: func(c Common) ([]Output, string) {
			cfg := configure(c, DefaultFig9Config, PaperFig9Config)
			cfg.Sweep, cfg.Faults = c.Sweep, c.Faults
			res := Fig9(cfg)
			return one("fig9", res.Table), res.Footnote()
		}},
	{Name: "10", Title: "Figure 10", All: true, Paper: true, Faults: true,
		Run: func(c Common) ([]Output, string) {
			cfg := configure(c, DefaultFig10Config, PaperFig10Config)
			cfg.Seed = c.Seed
			if c.Faults != nil {
				cfg.Loss = c.Faults.Loss // live wire supports uniform loss only
			}
			return one("fig10", Fig10(cfg).Table), ""
		}},
	{Name: "11", Title: "Figure 11", All: true, Paper: true, Simulated: true,
		Run: func(c Common) ([]Output, string) {
			cfg := configure(c, DefaultFig11Config, PaperFig11Config)
			cfg.Sweep = c.Sweep
			return one("fig11", Fig11(cfg).Table), ""
		}},
	{Name: "scale", Title: "Scale (offered load sweep)", All: true, Paper: true, Simulated: true,
		Run: func(c Common) ([]Output, string) {
			cfg := configure(c, DefaultScaleConfig, PaperScaleConfig)
			cfg.Sweep = c.Sweep
			return one("scale", Scale(cfg).Table), ""
		}},
	{Name: "stress", Title: "Stress (adversarial workload sweep)", All: true, Simulated: true,
		Run: func(c Common) ([]Output, string) {
			cfg := DefaultStressConfig()
			cfg.Sweep = c.Sweep
			return one("stress", Stress(cfg).Table), ""
		}},
	{Name: "overhead", Title: "Overhead comparison", All: true, Paper: true, Simulated: true,
		Run: func(c Common) ([]Output, string) {
			cfg := configure(c, DefaultOverheadConfig, PaperOverheadConfig)
			cfg.Sweep = c.Sweep
			return one("overhead", Overhead(cfg).Table), ""
		}},
	{Name: "federate", Title: "Federate (cross-domain 2PC sweep)", All: true, Paper: true, Simulated: true,
		Run: func(c Common) ([]Output, string) {
			cfg := configure(c, DefaultFederateConfig, PaperFederateConfig)
			cfg.Sweep = c.Sweep
			return one("federate", Federate(cfg).Table), ""
		}},
	{Name: "scale100k", Title: "Scale100k (capacity sweep)", Run: capacityFigure(DefaultScale100kConfig)},
	{Name: "scale1m", Title: "Scale1m (capacity sweep)", Run: capacityFigure(DefaultScale1mConfig)},
}

func capacityFigure(def func() CapacityConfig) func(Common) ([]Output, string) {
	return func(c Common) ([]Output, string) {
		cfg := def()
		cfg.Seed, cfg.Parallel = c.Seed, c.Parallel
		res := Capacity(cfg)
		return []Output{{cfg.Name + "_topo", res.TopoTable}, {cfg.Name + "_disc", res.DiscTable}}, ""
	}
}
