package cluster

import (
	"math/rand"
	"time"

	"repro/internal/bcp"
	"repro/internal/federation"
	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/service"
)

// Plan declares one run on a built cluster as data. Every instant is
// absolute virtual time; one already past when the plan starts fires at the
// start instant.
type Plan struct {
	Arrivals []Arrival // in draw order
	Churn    []Churn
	// Life, when positive, is how long a composed session lives before the
	// run ends it; zero keeps every session to the end of the run.
	Life time.Duration
	// Admit, when non-nil, stands in for composition with a global-view
	// decision at the arrival's instant; an admitted session ends by the
	// release it returns.
	Admit func(req *service.Request) (release func(), ok bool)
	// Horizon is the instant the run ends. A federated cluster runs on
	// through its lease drain, so every reservation has resolved by then.
	Horizon time.Duration
}

// Arrival is one request of a plan and the instant its source issues it.
type Arrival struct {
	At  time.Duration
	Req *service.Request
}

// Churn is one churn clause: at every tick, Frac of the peers (at least one)
// fail and each victim recovers DownFor later. Victims walk a permutation
// drawn from Rng, stepping over peers already down; the stream is the
// clause's own, so a caller can keep churn apart from its workload's draws.
type Churn struct {
	Rng     *rand.Rand
	Frac    float64
	Ticks   []time.Duration
	DownFor time.Duration
}

// Outcome is what became of one arrival: skipped, because its source was
// down at its instant, or completed. A composition reports its setup time,
// a federated one its domain count and commit latency too.
type Outcome struct {
	Skipped, Ok              bool
	SetupTime, CommitLatency time.Duration
	Domains                  int
}

// Run is a plan queued on a cluster, with its tally: arrivals issued, issued
// arrivals that completed, and arrivals skipped.
type Run struct {
	Issued, Completed, Skipped int

	c    *Cluster
	plan Plan
	done func(i int, o Outcome)
}

// Start queues plan on the cluster without running the clock: its arrivals
// in order, then each churn clause's ticks. The event queue breaks ties by
// insertion order, so what the caller schedules before Finish fires after
// the plan's events of the same instant. done, when non-nil, receives
// arrival i's outcome once: at its instant when it is skipped, when it
// completes otherwise.
func (c *Cluster) Start(plan Plan, done func(i int, o Outcome)) *Run {
	r := &Run{c: c, plan: plan, done: done}
	for i, a := range plan.Arrivals {
		c.Sim.Schedule(a.At-c.Sim.Now(), func() { r.issue(i, a.Req) })
	}
	for _, ch := range plan.Churn {
		for _, at := range ch.Ticks {
			c.Sim.Schedule(at-c.Sim.Now(), func() { c.churnStep(ch) })
		}
	}
	return r
}

// Finish runs the clock to the plan's horizon, through the lease drain on a
// federated cluster.
func (r *Run) Finish() {
	end := r.plan.Horizon
	if r.c.Fed != nil {
		end += r.c.Fed.Cfg.Drain()
	}
	r.c.Sim.Run(end)
}

// issue dispatches arrival i at its instant: to Admit when the plan has one,
// to the source's federation client on a federated cluster, to its engine
// otherwise. A composed session is maintained by the source's recovery
// manager when it has one and torn down otherwise, and under a plan's Life
// what it commits is leased for Life plus recovery's Lease, so what a crash
// strands frees itself; a federated one ends by its own lease.
func (r *Run) issue(i int, req *service.Request) {
	c := r.c
	if !c.Net.Alive(req.Source) {
		r.report(i, Outcome{Skipped: true})
		return
	}
	r.Issued++
	end := func(fn func()) {
		if r.plan.Life > 0 {
			c.Sim.Schedule(r.plan.Life, fn)
		}
	}
	p := c.Peers[int(req.Source)]
	switch {
	case r.plan.Admit != nil:
		release, ok := r.plan.Admit(req)
		if ok {
			end(release)
		}
		r.report(i, Outcome{Ok: ok})
	case c.Fed != nil:
		p.Fed.Compose(req, func(res federation.Result) {
			r.report(i, Outcome{Ok: res.Ok, SetupTime: res.SetupTime,
				Domains: res.Domains, CommitLatency: res.CommitLatency})
		})
	default:
		if r.plan.Life > 0 {
			req.Lease = r.plan.Life + recovery.DefaultConfig().Lease()
		}
		p.Engine.Compose(req, func(res bcp.Result) {
			r.report(i, Outcome{Ok: res.Ok, SetupTime: res.SetupTime})
			switch {
			case !res.Ok:
			case p.Recovery != nil:
				p.Recovery.Establish(req, res)
				end(func() { p.Recovery.Close(req.ID) })
			default:
				end(func() { p.Engine.Teardown(res.Best) })
			}
		})
	}
}

func (r *Run) report(i int, o Outcome) {
	if o.Skipped {
		r.Skipped++
	} else {
		r.Completed++
	}
	if r.done != nil {
		r.done(i, o)
	}
}

// churnStep runs one tick of a churn clause.
func (c *Cluster) churnStep(ch Churn) {
	n := max(1, int(ch.Frac*float64(len(c.Peers))))
	for _, v := range ch.Rng.Perm(len(c.Peers)) {
		if id := p2p.NodeID(v); n > 0 && c.Net.Alive(id) {
			c.Net.Fail(id)
			n--
			c.Sim.Schedule(ch.DownFor, func() { c.Net.Recover(id) })
		}
	}
}
