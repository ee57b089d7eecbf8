package experiment

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qos"
)

// Fig8Config parameterizes the success-ratio-vs-workload experiment.
type Fig8Config struct {
	OpenLoop
	// Workloads lists the requests-per-time-unit levels (the x axis).
	Workloads []int
}

// DefaultFig8Config returns the laptop-scale configuration.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		OpenLoop: OpenLoop{
			World:       World{Sweep: Sweep{Seed: 1}, IPNodes: 1200, Peers: 120, Functions: 30},
			TimeUnits:   20,
			TimeUnit:    time.Second,
			SessionLife: 15 * time.Second,
			MinFuncs:    2,
			MaxFuncs:    3,
			Capacity:    qos.Resources{qos.CPU: 8, qos.Memory: 80},
			DelayReqMin: 150,
			DelayReqMax: 400,
		},
		Workloads: []int{2, 4, 6, 8, 10},
	}
}

// PaperFig8Config returns the paper's dimensions (§6.1): a 10,000-node IP
// network, 1,000 peers, 200 functions, workloads 50–250 requests per time
// unit. Expect a long run.
func PaperFig8Config() Fig8Config {
	c := DefaultFig8Config()
	c.IPNodes = 10000
	c.Peers = 1000
	c.Functions = 200
	c.Workloads = []int{50, 100, 150, 200, 250}
	c.TimeUnits = 50 // the paper runs 2000 time units; the ratio is what matters
	return c
}

// Fig8Point is one x-position of Figure 8: the success ratio each algorithm
// achieved at one workload level.
type Fig8Point struct {
	Workload  int
	Optimal   float64
	Probing20 float64 // BCP with 20% of the optimal probe count
	Probing10 float64 // BCP with 10% of the optimal probe count
	Random    float64
	Static    float64
}

// Fig8Result is the full figure.
type Fig8Result struct {
	Points []Fig8Point
	Table  *metrics.Table
}

// fig8Algs are Figure 8's series, in Fig8Point field and table column order.
var fig8Algs = []algorithm{algOptimal, algProbing20, algProbing10, algRandom, algStatic}

// Fig8 reproduces Figure 8: composition success ratio under increasing
// workload for the optimal (unbounded flooding), probing-0.2, probing-0.1,
// random, and static algorithms. Each algorithm replays the identical
// request schedule on a fresh identically seeded cluster.
func Fig8(cfg Fig8Config) Fig8Result {
	// One cell per (workload, algorithm) pair; each builds its own cluster
	// from the same seed, so cells are independent and order-free.
	n := len(fig8Algs)
	ratios := make([]float64, len(cfg.Workloads)*n)
	runCells(len(ratios), cfg.Parallel, cfg.Trace, func(i int, tracer obs.Tracer) {
		ratios[i] = runLoadCell(loadCell{
			OpenLoop: cfg.OpenLoop,
			perUnit:  cfg.Workloads[i/n],
			alg:      fig8Algs[i%n],
		}, tracer).Success
	})

	cols := []string{"workload"}
	for _, a := range fig8Algs {
		cols = append(cols, a.name)
	}
	out := Fig8Result{Table: metrics.NewTable("Figure 8: QoS success ratio vs. workload (requests/time unit)", cols...)}
	for wi, w := range cfg.Workloads {
		r := ratios[wi*n:]
		p := Fig8Point{Workload: w, Optimal: r[0], Probing20: r[1], Probing10: r[2], Random: r[3], Static: r[4]}
		out.Points = append(out.Points, p)
		out.Table.AddRow(p.Workload, p.Optimal, p.Probing20, p.Probing10, p.Random, p.Static)
	}
	return out
}
