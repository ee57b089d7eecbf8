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
	// on top of the churn in both runs, with the protocol hardening knobs
	// (probe retransmits, missed-pong hysteresis) switched on.
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
	recCfgs[1].Reactive = false

	tls := make([]*metrics.Timeline, 2)
	stats := make([]recovery.Stats, 2)
	runCells(2, cfg.Parallel, cfg.Trace, func(i int, tracer obs.Tracer) {
		tls[i], stats[i] = fig9Run(cfg, recCfgs[i], tracer)
	})

	horizon := time.Duration(cfg.TimeUnits) * cfg.TimeUnit
	wi := tls[0].Counts(horizon)
	wo := tls[1].Counts(horizon)

	var out Fig9Result
	for i := 0; i < cfg.TimeUnits; i++ {
		out.Points = append(out.Points, Fig9Point{
			Minute:          i,
			WithoutRecovery: wo[i],
			WithRecovery:    wi[i],
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

// fig9Run simulates one protected (or unprotected) session population under
// churn and returns the timeline of unrecovered failures.
func fig9Run(cfg Fig9Config, recCfg recovery.Config, tracer obs.Tracer) (*metrics.Timeline, recovery.Stats) {
	opts := cfg.options(tracer)
	opts.BCP = bcp.DefaultConfig()
	if cfg.Faults != nil {
		opts.BCP, recCfg = cluster.Hardened(opts.BCP, recCfg)
	}
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

	tl := metrics.NewTimeline(cfg.TimeUnit)
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
	// Let the initial population settle before churn starts.
	c.Sim.Run(30 * time.Second)

	churnRng := newRng(cfg.Seed + 400)
	for unit := 0; unit < cfg.TimeUnits; unit++ {
		at := 30*time.Second + time.Duration(unit)*cfg.TimeUnit
		c.Sim.Schedule(at-c.Sim.Now(), func() {
			// Fail ChurnFrac of the peers; schedule their return.
			c.ChurnStep(churnRng, cfg.ChurnFrac, time.Duration(cfg.RecoverAfter)*cfg.TimeUnit)
			// Replace sessions that died in earlier units to keep the
			// population size steady.
			for i := live - c.RecoveryStats().Dead; i < cfg.Sessions; i++ {
				establish(2)
			}
		})
	}
	c.Sim.Run(30*time.Second + time.Duration(cfg.TimeUnits)*cfg.TimeUnit + 30*time.Second)

	// Every EventDead is an unrecovered failure.
	for _, p := range c.Peers {
		for _, ev := range p.Recovery.Events() {
			if ev.Kind == recovery.EventDead && ev.Time >= 30*time.Second {
				tl.Add(ev.Time - 30*time.Second)
			}
		}
	}
	return tl, c.RecoveryStats()
}
