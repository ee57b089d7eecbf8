package experiment

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qos"
)

// ScaleConfig parameterizes the offered-load scale experiment: the same
// session schedule is replayed at increasing arrival rates against two
// deployments that both pay utilization-driven processing delay, one with
// load-blind and one with load-aware composition (§6-style sweep for the
// overload control plane).
type ScaleConfig struct {
	OpenLoop
	// Loads lists the offered-load levels (sessions per time unit, x axis).
	Loads []int
	// Budget is the probing budget per request.
	Budget int
	// Model is the utilization-driven processing-delay model applied to both
	// variants (zero Base would disable the inflation and make the variants
	// indistinguishable).
	Model qos.LoadModel
	// Shed is the overload-shedding threshold the load-aware variant uses.
	Shed float64
}

// DefaultScaleConfig returns the laptop-scale configuration.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		OpenLoop: OpenLoop{
			World:       World{Sweep: Sweep{Seed: 1}, IPNodes: 1000, Peers: 100, Functions: 24},
			TimeUnits:   12,
			TimeUnit:    time.Second,
			SessionLife: 10 * time.Second,
			MinFuncs:    2,
			MaxFuncs:    3,
			// Loose enough that admission rarely binds: the sweep probes the
			// processing-load regime, where hotspot queueing delay — not
			// resource exhaustion — is what separates the variants.
			Capacity:    qos.Resources{qos.CPU: 12, qos.Memory: 120},
			DelayReqMin: 150,
			DelayReqMax: 400,
		},
		Loads:  []int{4, 8, 16, 24},
		Budget: 6,
		Model:  qos.LoadModel{Base: 20 * time.Millisecond, Cap: 0.95},
		Shed:   0.8,
	}
}

// PaperScaleConfig uses the paper's overlay dimensions (§6.1): a 10,000-node
// IP network, 1,000 peers, 200 functions. Expect a long run.
func PaperScaleConfig() ScaleConfig {
	c := DefaultScaleConfig()
	c.IPNodes = 10000
	c.Peers = 1000
	c.Functions = 200
	c.Loads = []int{50, 100, 200, 400}
	c.TimeUnits = 30
	return c
}

// ScalePoint is one (offered load, variant) cell: composition success ratio,
// setup-latency percentiles over successful sessions, and the spread of
// per-peer peak utilization (the hotspot CDF).
type ScalePoint struct {
	Load    int
	Aware   bool
	Success float64
	// SetupP50/P99 are setup-latency percentiles in ms over successful
	// compositions (failures would only measure the collect timeout).
	SetupP50, SetupP99 float64
	// UtilP50/P90/Max summarize the distribution of each peer's peak
	// utilization over the run.
	UtilP50, UtilP90, UtilMax float64
}

// ScaleResult is the full sweep.
type ScaleResult struct {
	Points []ScalePoint
	Table  *metrics.Table
}

// scaleAlgs are the variants simulated by Scale, in cell order.
var scaleAlgs = []algorithm{algBlind, algSpiderNet}

// Scale sweeps offered load over the load-blind and load-aware variants.
// Both variants pay the same utilization-driven processing delay; only the
// aware one folds utilization into next-hop choice and graph selection and
// sheds probes past the threshold, so any difference in the hotspot spread
// and latency tail is attributable to the overload control plane.
func Scale(cfg ScaleConfig) ScaleResult {
	n := len(scaleAlgs)
	points := make([]ScalePoint, len(cfg.Loads)*n)
	runCells(len(points), cfg.Parallel, cfg.Trace, func(i int, tracer obs.Tracer) {
		alg := scaleAlgs[i%n]
		r := runLoadCell(loadCell{
			OpenLoop: cfg.OpenLoop,
			perUnit:  cfg.Loads[i/n],
			budget:   cfg.Budget,
			model:    cfg.Model,
			shed:     cfg.Shed,
			alg:      alg,
		}, tracer)
		points[i] = ScalePoint{
			Load:     cfg.Loads[i/n],
			Aware:    alg.aware,
			Success:  r.Success,
			SetupP50: r.Setup.Percentile(50),
			SetupP99: r.Setup.Percentile(99),
			UtilP50:  r.PeakUtil.Percentile(50),
			UtilP90:  r.PeakUtil.Percentile(90),
			UtilMax:  r.PeakUtil.Max(),
		}
	})

	out := ScaleResult{Points: points, Table: metrics.NewTable(
		"Scale: offered load sweep, load-blind vs. load-aware composition",
		"load", "variant", "success", "setup p50 ms", "setup p99 ms",
		"util p50", "util p90", "util max")}
	for _, p := range points {
		variant := "blind"
		if p.Aware {
			variant = "aware"
		}
		out.Table.AddRow(p.Load, variant, p.Success, p.SetupP50, p.SetupP99,
			p.UtilP50, p.UtilP90, p.UtilMax)
	}
	return out
}
