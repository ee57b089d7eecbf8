package experiment

import (
	"fmt"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Fig9Config parameterizes the failure-frequency-under-churn experiment.
type Fig9Config struct {
	World
	// Sessions is the population of long-lived streaming sessions kept
	// alive for the whole run (dead ones are replaced).
	Sessions int
	// TimeUnits is the run length in churn time units (the paper plots 60
	// minutes).
	TimeUnits int
	// TimeUnit is the simulated duration of one churn unit (1 minute in the
	// paper).
	TimeUnit time.Duration
	// ChurnFrac is the fraction of peers failing per time unit (1% in the
	// paper).
	ChurnFrac float64
	// RecoverAfter is how many time units a failed peer stays down.
	RecoverAfter int
	// Budget is the probing budget for session (re-)composition.
	Budget int
	// Faults, when non-nil, layers wire faults (loss/dup/jitter/partition)
	// on top of the churn in both runs; a spec that injects something
	// hardens the engines (probe retransmits, three silent walks before a
	// failure).
	Faults *simnet.FaultSpec
}

// DefaultFig9Config returns the laptop-scale configuration.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		World:        World{Sweep: Sweep{Seed: 1}, IPNodes: 1200, Peers: 120, Functions: 20},
		Sessions:     30,
		TimeUnits:    60,
		TimeUnit:     time.Minute,
		ChurnFrac:    0.01,
		RecoverAfter: 3,
		Budget:       40,
	}
}

// PaperFig9Config uses the paper's network dimensions.
func PaperFig9Config() Fig9Config {
	c := DefaultFig9Config()
	c.IPNodes = 10000
	c.Peers = 1000
	c.Functions = 200
	c.Sessions = 150
	return c
}

// Fig9Point is one time unit of Figure 9: the number of unrecovered session
// failures with and without proactive recovery.
type Fig9Point struct {
	Minute          int
	WithoutRecovery int
	WithRecovery    int
}

// Fig9Result is the full figure plus the recovery statistics the paper
// quotes in its discussion (average ≈2.74 backups per session; proactive
// recovery repairs almost all failures).
type Fig9Result struct {
	Points []Fig9Point
	Table  *metrics.Table

	AvgBackups       float64 // with proactive recovery
	Switchovers      int
	Reactives        int
	DeadWithRecovery int
	DeadWithout      int
}

// Fig9 reproduces Figure 9: failure frequency over time in a dynamic P2P
// network where ChurnFrac of the peers fail every time unit, comparing a
// session population protected by proactive failure recovery against an
// unprotected one.
func Fig9(cfg Fig9Config) Fig9Result {
	// Two cells: the protected population and the unprotected one. Each
	// builds its own cluster from the same seed.
	recCfgs := make([]recovery.Config, 2)
	recCfgs[0] = recovery.DefaultConfig()
	recCfgs[1] = recovery.DefaultConfig()
	recCfgs[1].Proactive = false

	dead := make([][]int, 2)
	stats := make([]recovery.Stats, 2)
	runCells(2, cfg.Parallel, cfg.Trace, func(i int, tracer obs.Tracer) {
		dead[i], stats[i] = fig9Run(cfg, recCfgs[i], tracer)
	})

	var out Fig9Result
	for i := 0; i < cfg.TimeUnits; i++ {
		out.Points = append(out.Points, Fig9Point{
			Minute:          i,
			WithoutRecovery: dead[1][i],
			WithRecovery:    dead[0][i],
		})
	}
	out.AvgBackups = stats[0].AvgBackups()
	out.Switchovers = stats[0].Switchovers
	out.Reactives = stats[0].Reactives
	out.DeadWithRecovery = stats[0].Dead
	out.DeadWithout = stats[1].Dead

	t := metrics.NewTable("Figure 9: failure frequency in a dynamic P2P network (1% churn/unit)",
		"minute", "without-recovery", "with-proactive-recovery")
	for _, p := range out.Points {
		t.AddRow(p.Minute, p.WithoutRecovery, p.WithRecovery)
	}
	out.Table = t
	return out
}

// Footnote renders the recovery statistics line printed under the table.
func (r Fig9Result) Footnote() string {
	return fmt.Sprintf("avg backups/session: %.2f  switchovers: %d  reactive: %d  unrecovered(with): %d  unrecovered(without): %d",
		r.AvgBackups, r.Switchovers, r.Reactives, r.DeadWithRecovery, r.DeadWithout)
}

// fig9Warmup lets the initial session population settle before churn starts.
const fig9Warmup = 30 * time.Second

// fig9Run simulates one protected (or unprotected) session population under
// churn and returns its unrecovered failures per time unit: the cell's own
// rec.dead events from the end of the warm-up on, bucketed by TimeUnit.
func fig9Run(cfg Fig9Config, recCfg recovery.Config, tracer obs.Tracer) ([]int, recovery.Stats) {
	dead := make([]int, cfg.TimeUnits)
	var count obs.Tracer = obs.TracerFunc(func(ev obs.Event) {
		if ev.Kind != obs.KindRecDead || ev.TS < fig9Warmup {
			return
		}
		if i := int((ev.TS - fig9Warmup) / cfg.TimeUnit); i < len(dead) {
			dead[i]++
		}
	})
	if tracer != nil {
		count = obs.MultiTracer{tracer, count}
	}
	opts := cfg.options(count)
	opts.Recovery = &recCfg
	c := cluster.New(opts)
	c.ApplyFaultSpec(cfg.Faults)
	gen := workload.NewGenerator(workload.Config{
		Catalog:  opts.Catalog,
		Peers:    cfg.Peers,
		MinFuncs: 2,
		MaxFuncs: 3,
		Budget:   cfg.Budget,
		// Generous QoS (Figure 9 studies failures, not admission) but a
		// tight failure bound: long-lived streaming sessions in a network
		// churning 1% per minute demand failure resilience, which drives
		// the backup count γ of Eq. 2 to the paper's ≈2-3 per session.
		DelayReqMin: 4000,
		DelayReqMax: 8000,
		FailReq:     0.02,
	}, newRng(cfg.Seed+300))

	live := 0

	// establish keeps composing until one session sticks (or attempts run
	// out); used for the initial population and for replacements.
	var establish func(attempts int)
	establish = func(attempts int) {
		if attempts <= 0 {
			return
		}
		req := gen.Next()
		if !c.Net.Alive(req.Source) || !c.Net.Alive(req.Dest) {
			establish(attempts - 1)
			return
		}
		p := c.Peers[int(req.Source)]
		p.Engine.Compose(req, func(res bcp.Result) {
			if !res.Ok {
				establish(attempts - 1)
				return
			}
			p.Recovery.Establish(req, res)
			live++
		})
	}
	for i := 0; i < cfg.Sessions; i++ {
		establish(3)
	}
	c.Sim.Run(fig9Warmup)

	// Fail ChurnFrac of the peers at every unit; right after each tick's
	// failures, replace the sessions that died in earlier units to keep the
	// population size steady.
	churn := cluster.Churn{Rng: newRng(cfg.Seed + 400), Frac: cfg.ChurnFrac,
		DownFor: time.Duration(cfg.RecoverAfter) * cfg.TimeUnit}
	for unit := 0; unit < cfg.TimeUnits; unit++ {
		churn.Ticks = append(churn.Ticks, fig9Warmup+time.Duration(unit)*cfg.TimeUnit)
	}
	run := c.Start(cluster.Plan{Churn: []cluster.Churn{churn},
		Horizon: fig9Warmup + time.Duration(cfg.TimeUnits)*cfg.TimeUnit + 30*time.Second}, nil)
	for _, at := range churn.Ticks {
		c.Sim.Schedule(at-c.Sim.Now(), func() {
			for i := live - c.RecoveryStats().Dead; i < cfg.Sessions; i++ {
				establish(2)
			}
		})
	}
	run.Finish()
	return dead, c.RecoveryStats()
}
