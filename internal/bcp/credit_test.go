package bcp_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/workload"
)

// Tests for the termination-credit collect window: the destination closes
// collection the moment every live probe has reported, and the paper's
// window timer stays as the bound for requests that lost a probe.

// collectWindow is the window bound the default configuration gives req.
func collectWindow(req *service.Request) time.Duration {
	cfg := bcp.DefaultConfig()
	return cfg.CollectTimeout + time.Duration(req.FGraph.NumFunctions())*cfg.CollectPerHop
}

// closeOf summarises the destination side of one request's trace.
type closeOf struct {
	dropped, returned, collected int
	firstCollected               time.Duration
	selectDone                   *obs.Event
	// sameEvent is true when select.done directly follows the request's last
	// probe.collected in the trace, at the same instant on the same node.
	sameEvent bool
}

func closeIn(events []obs.Event, req uint64) closeOf {
	var c closeOf
	lastCollected := -1
	for i := range events {
		ev := &events[i]
		if ev.Req != req {
			continue
		}
		switch ev.Kind {
		case obs.KindProbeDropped:
			c.dropped++
		case obs.KindProbeReturned:
			c.returned++
		case obs.KindProbeCollected:
			if c.collected == 0 {
				c.firstCollected = ev.TS
			}
			c.collected++
			lastCollected = i
		case obs.KindSelectDone:
			c.selectDone = ev
			c.sameEvent = lastCollected == i-1 &&
				events[lastCollected].TS == ev.TS && events[lastCollected].Node == ev.Node
		}
	}
	return c
}

// randomRequest draws one of the function-graph shapes BCP supports over the
// cluster's catalogue, with a random budget and sometimes explicit quotas.
func randomRequest(c *cluster.Cluster, rng *rand.Rand, id uint64) (*service.Request, string) {
	fns := c.FunctionsByReplicas()
	rng.Shuffle(len(fns), func(i, j int) { fns[i], fns[j] = fns[j], fns[i] })
	req := req3(c, id, []int{1, 2, 3, 8, 24}[rng.Intn(5)])
	req.QoSReq[qos.Delay] = 1e9 // nothing dies on a QoS check ...
	if rng.Intn(2) == 0 {
		req.QoSReq[qos.Delay] = 100 + 150*rng.Float64() // ... or some probes do
	}
	var shape string
	switch rng.Intn(4) {
	case 0:
		n := 1 + rng.Intn(4)
		shape = fmt.Sprintf("chain%d", n)
		req.FGraph = fgraph.Linear(fns[:n]...)
	case 1:
		// Fork and join: f0 feeds f1 and f2, both feed f3.
		shape = "fork"
		b := fgraph.NewBuilder()
		f := []int{b.AddFunction(fns[0]), b.AddFunction(fns[1]), b.AddFunction(fns[2]), b.AddFunction(fns[3])}
		b.AddDependency(f[0], f[1]).AddDependency(f[0], f[2]).AddDependency(f[1], f[3]).AddDependency(f[2], f[3])
		req.FGraph, _ = b.Build()
	case 2:
		// Two commutable pairs: up to four patterns, more than budgets 1–3.
		shape = "commute"
		b := fgraph.NewBuilder()
		f := make([]int, 5)
		for i := range f {
			f[i] = b.AddFunction(fns[i])
			if i > 0 {
				b.AddDependency(f[i-1], f[i])
			}
		}
		b.AddCommutation(f[0], f[1]).AddCommutation(f[3], f[4])
		req.FGraph, _ = b.Build()
	case 3:
		shape = "variants"
		req.FGraph = fgraph.Linear(fns[0], fns[1], fns[2])
		req.Variants = []*fgraph.Graph{fgraph.Linear(fns[0], fns[3]), fgraph.Linear(fns[4])}
	}
	if req.Variants == nil && rng.Intn(2) == 0 {
		shape += "+quota"
		req.Quota = make([]int, req.FGraph.NumFunctions())
		for i := range req.Quota {
			req.Quota[i] = 1 + rng.Intn(3)
		}
	}
	return req, fmt.Sprintf("%s/budget=%d", shape, req.Budget)
}

// TestCreditConservedOnRandomGraphs is the protocol property behind the early
// close: on a loss-free wire, a request none of whose probes died collects
// exactly TotalCredit and selects in the very event that collected its last
// probe; a request that lost a probe stays short of the total and selects at
// exactly the window bound. Either way the trace passes obs.Check, including
// its complete-at-close invariant.
func TestCreditConservedOnRandomGraphs(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	early, atBound := 0, 0
	shapes := make(map[string]bool)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		mem := &obs.MemSink{}
		c := cluster.New(cluster.Options{Seed: seed, IPNodes: 200, Peers: 40, Catalog: catalog(6), Trace: mem})
		req, shape := randomRequest(c, rand.New(rand.NewSource(seed)), uint64(seed))
		if req.FGraph == nil {
			t.Fatalf("seed=%d %s: function graph did not build", seed, shape)
		}
		c.Peers[int(req.Source)].Engine.Compose(req, func(bcp.Result) {})
		// Long enough for discovery + probing + the full window, short
		// enough that the closed collector is still around to inspect.
		c.Sim.Run(c.Sim.Now() + 8*time.Second)

		events := mem.Events()
		for _, v := range obs.Check(events) {
			t.Errorf("seed=%d %s invariant: %s", seed, shape, v)
		}
		got := closeIn(events, req.ID)
		credit, collecting := c.Peers[int(req.Dest)].Engine.CollectedCredit(req.ID)
		if !collecting {
			if got.returned != 0 {
				t.Errorf("seed=%d %s: %d probes returned but no collector ran", seed, shape, got.returned)
			}
			continue
		}
		if got.selectDone == nil || got.collected != got.returned {
			t.Errorf("seed=%d %s: select.done=%v, collected %d of %d returned",
				seed, shape, got.selectDone, got.collected, got.returned)
			continue
		}
		shapes[shape[:4]] = true
		if got.dropped == 0 {
			early++
			if credit != bcp.TotalCredit {
				t.Errorf("seed=%d %s: no probe died but collected credit %d != total %d (off by %d)",
					seed, shape, credit, bcp.TotalCredit, int64(bcp.TotalCredit-credit))
			}
			if !got.sameEvent || got.selectDone.Dur <= 0 {
				t.Errorf("seed=%d %s: selection (early by %v) did not run in the event of the last collection",
					seed, shape, got.selectDone.Dur)
			}
		} else {
			atBound++
			if credit >= bcp.TotalCredit {
				t.Errorf("seed=%d %s: %d probes died yet collected credit %d reached the total",
					seed, shape, got.dropped, credit)
			}
			if want := got.firstCollected + collectWindow(req); got.selectDone.TS != want || got.selectDone.Dur != 0 {
				t.Errorf("seed=%d %s: selection at %v (early by %v), want the window bound %v",
					seed, shape, got.selectDone.TS, got.selectDone.Dur, want)
			}
		}
	}
	t.Logf("%d early closes, %d window-bound closes over %d seeds", early, atBound, seeds)
	if early == 0 || atBound == 0 {
		t.Errorf("property covered early=%d bound=%d closes, want both", early, atBound)
	}
	for _, s := range []string{"chai", "fork", "comm", "vari"} {
		if !shapes[s] {
			t.Errorf("no %s… request reached its destination", s)
		}
	}
}

// TestDroppedProbeClosesAtOldWindow forces part of a request's probes to die
// on the QoS check while others return: the dead probes take their credit
// with them, so the collector must close at exactly the paper's window —
// CollectTimeout + n·CollectPerHop after the first report — as it did before
// early close existed.
func TestDroppedProbeClosesAtOldWindow(t *testing.T) {
	build := func(tr obs.Tracer) (*cluster.Cluster, *service.Request) {
		c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Trace: tr})
		return c, req3(c, 1, 24)
	}
	// Learn the spread of end-to-end delays the probes see, then replay on an
	// identical cluster with the requirement set inside that spread.
	c0, req0 := build(nil)
	res := compose(c0, req0)
	if !res.Ok || len(res.Backups) == 0 {
		t.Skip("baseline composition has no alternatives to split")
	}
	var delays []float64
	for _, g := range append(res.Backups, res.Best) {
		delays = append(delays, g.QoS[qos.Delay])
	}
	sort.Float64s(delays)
	lo, hi := delays[0], delays[len(delays)-1]
	if lo == hi {
		t.Skip("all candidates have the same delay")
	}

	mem := &obs.MemSink{}
	c, req := build(mem)
	req.QoSReq[qos.Delay] = (lo + hi) / 2
	out := compose(c, req)
	got := closeIn(mem.Events(), req.ID)
	if got.dropped == 0 || got.collected == 0 || got.selectDone == nil {
		t.Fatalf("setup did not split the probes: %+v", got)
	}
	window := collectWindow(req)
	if want := got.firstCollected + window; got.selectDone.TS != want {
		t.Fatalf("selection at %v, want exactly the old window bound %v", got.selectDone.TS, want)
	}
	if got.selectDone.Dur != 0 {
		t.Fatalf("select.done claims an early close (by %v) although probes died", got.selectDone.Dur)
	}
	if !out.Ok || out.CollectPhase <= 0 || out.CollectPhase > window {
		t.Fatalf("ok=%v CollectPhase=%v, want a success that waited inside the %v window",
			out.Ok, out.CollectPhase, window)
	}
	for _, v := range obs.Check(mem.Events()) {
		t.Errorf("invariant: %s", v)
	}
}

// TestCollectPhaseGate holds the gain: on a loss-free 200-peer cluster the
// destination's residual wait after its last probe (Result.CollectPhase) has
// a median below 1 ms — it was the full ~2 s window before early close.
func TestCollectPhaseGate(t *testing.T) {
	cat := chaosCatalog(20)
	c := cluster.New(cluster.Options{Seed: 3, IPNodes: 1000, Peers: 200, Catalog: cat})
	gen := workload.NewGenerator(workload.Config{
		Catalog: cat, Peers: 200, MinFuncs: 2, MaxFuncs: 4,
		Budget: 20, DelayReqMin: 500, DelayReqMax: 2000,
	}, c.Rng)
	var waits []time.Duration
	const nReqs = 60
	for i := 0; i < nReqs; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*500*time.Millisecond, func() {
			c.Peers[int(req.Source)].Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					waits = append(waits, res.CollectPhase)
				}
			})
		})
	}
	c.Sim.RunUntilIdle()
	if len(waits) < nReqs/2 {
		t.Fatalf("only %d of %d compositions succeeded", len(waits), nReqs)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if p50 := waits[len(waits)/2]; p50 >= time.Millisecond {
		t.Fatalf("CollectPhase p50 = %v over %d setups, want < 1ms", p50, len(waits))
	}
}
