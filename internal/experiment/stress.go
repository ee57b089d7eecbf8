package experiment

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/workload"
)

// StressScenario names one adversarial traffic shape of the stress sweep.
type StressScenario struct {
	Name string // short row label ("flash", "churnstorm", ...)
	Spec string // workload.ParseScenario grammar
}

// StressConfig parameterizes the adversarial-workload sweep: every scenario
// (Zipf popularity, diurnal load, flash crowd, churn storm) is replayed
// through SpiderNet's BCP and through the credible global-view baselines on
// identically seeded clusters, so the per-cell differences are attributable
// to the algorithm alone.
type StressConfig struct {
	OpenLoop
	// Scenarios lists the stress shapes swept; each spec must parse under
	// workload.ParseScenario (Stress panics otherwise — the sweep is
	// config-driven, not user-input-driven).
	Scenarios []StressScenario
	// PerUnit is the baseline offered load (requests per time unit) before
	// the scenario's rate curve scales it.
	PerUnit int
	// Budget is SpiderNet's probing budget per request.
	Budget int
	// Model/Shed configure the load plane: both SpiderNet and the baselines
	// run on clusters paying utilization-driven processing delay; SpiderNet
	// additionally folds utilization into selection and sheds past Shed.
	Model qos.LoadModel
	Shed  float64
	// RecoverAfter is how many time units a churn-storm victim stays down.
	RecoverAfter int
}

// DefaultStressConfig returns the laptop-scale sweep: four scenarios
// (heavy tail, diurnal, flash crowd, churn storm) over a 100-peer cluster.
func DefaultStressConfig() StressConfig {
	return StressConfig{
		OpenLoop: OpenLoop{
			World:       World{Sweep: Sweep{Seed: 1}, IPNodes: 1000, Peers: 100, Functions: 24},
			TimeUnits:   12,
			TimeUnit:    time.Second,
			SessionLife: 10 * time.Second,
			MinFuncs:    2,
			MaxFuncs:    3,
			// Tight, so heavy-tailed popularity actually concentrates
			// contention on the popular replicas.
			Capacity:    qos.Resources{qos.CPU: 8, qos.Memory: 80},
			DelayReqMin: 150,
			DelayReqMax: 400,
		},
		Scenarios: []StressScenario{
			{Name: "zipf", Spec: "zipf=1.1"},
			{Name: "diurnal", Spec: "zipf=1.1,diurnal=8s@0.6"},
			{Name: "flash", Spec: "zipf=1.1,flash=fn0:8@4s+4s"},
			{Name: "churnstorm", Spec: "zipf=1.1,churn=0.04@4s+4s,seed=7"},
		},
		PerUnit:      8,
		Budget:       6,
		Model:        qos.LoadModel{Base: 20 * time.Millisecond, Cap: 0.95},
		Shed:         0.8,
		RecoverAfter: 3,
	}
}

// StressPoint is one (scenario, algorithm) cell of the sweep.
type StressPoint struct {
	Scenario string // scenario name
	Spec     string // canonical scenario spec
	Alg      string
	// Offered counts the requests actually issued (dead-source arrivals
	// during churn are skipped identically for every algorithm).
	Offered int
	// Success is the composition success ratio over offered requests.
	Success float64
	// SetupP50/P99 are setup-latency percentiles in ms over successful
	// compositions. The global-view baselines select instantaneously, so
	// only the spidernet rows have non-zero setup.
	SetupP50, SetupP99 float64
	// UtilMax is the highest per-peer peak utilization seen in the run.
	UtilMax float64
	// Shed counts probes declined by overload shedding (spidernet only).
	Shed int64
}

// StressResult is the full sweep.
type StressResult struct {
	Points []StressPoint
	Table  *metrics.Table
}

// stressAlgs are the algorithms swept by Stress, in cell order.
var stressAlgs = []algorithm{algSpiderNet, algGreedy, algRandom, algBacktracking, algCommunity}

// Stress sweeps every configured scenario over SpiderNet and the baseline
// algorithms. Each cell replays the identical request and churn schedule on
// a fresh identically seeded cluster; cells are independent, so the sweep
// is byte-identical at any Parallel worker count.
func Stress(cfg StressConfig) StressResult {
	scns := make([]*workload.Scenario, len(cfg.Scenarios))
	for i, s := range cfg.Scenarios {
		scn, err := workload.ParseScenario(s.Spec)
		if err != nil {
			panic(fmt.Sprintf("experiment: stress scenario %q: %v", s.Name, err))
		}
		scns[i] = scn
	}
	n := len(stressAlgs)
	points := make([]StressPoint, len(cfg.Scenarios)*n)
	runCells(len(points), cfg.Parallel, cfg.Trace, func(i int, tracer obs.Tracer) {
		r := runLoadCell(loadCell{
			OpenLoop:     cfg.OpenLoop,
			scenario:     scns[i/n],
			perUnit:      cfg.PerUnit,
			budget:       cfg.Budget,
			model:        cfg.Model,
			shed:         cfg.Shed,
			recoverAfter: cfg.RecoverAfter,
			alg:          stressAlgs[i%n],
		}, tracer)
		points[i] = StressPoint{
			Scenario: cfg.Scenarios[i/n].Name,
			Spec:     scns[i/n].String(),
			Alg:      stressAlgs[i%n].name,
			Offered:  r.Offered,
			Success:  r.Success,
			SetupP50: r.Setup.Percentile(50),
			SetupP99: r.Setup.Percentile(99),
			UtilMax:  r.PeakUtil.Max(),
			Shed:     r.Shed,
		}
	})

	out := StressResult{Points: points, Table: metrics.NewTable(
		"Stress: adversarial workloads × composition algorithms",
		"scenario", "alg", "offered", "success", "setup p50 ms", "setup p99 ms",
		"util max", "shed")}
	for _, p := range points {
		out.Table.AddRow(p.Scenario, p.Alg, p.Offered, p.Success, p.SetupP50, p.SetupP99,
			p.UtilMax, p.Shed)
	}
	return out
}
