package bcp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Tests for the termination-credit collect window: the destination closes
// collection the moment every probe has reported or returned its credit
// from where it died, and the paper's window timer stays as the bound for
// requests that lost a report or a credit on the wire.

// collectWindow is the window bound req's collection gets.
func collectWindow(req *service.Request) time.Duration {
	return bcp.CollectTimeout + time.Duration(req.FGraph.NumFunctions())*bcp.CollectPerHop
}

// closeOf summarises the destination side of one request's trace.
type closeOf struct {
	dropped, returned, collected, credited int
	// first and last are when the destination accounted for its first and
	// last probe, by report or by credit.
	first, last time.Duration
	selectDone  *obs.Event
	// sameEvent is true when select.done directly follows the request's last
	// probe.collected or probe.credited in the trace, at the same instant on
	// the same node.
	sameEvent bool
}

func closeIn(events []obs.Event, req uint64) closeOf {
	var c closeOf
	lastAccounted := -1
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
		case obs.KindProbeCollected, obs.KindProbeCredited:
			if lastAccounted < 0 {
				c.first = ev.TS
			}
			if ev.Kind == obs.KindProbeCollected {
				c.collected++
			} else {
				c.credited++
			}
			c.last, lastAccounted = ev.TS, i
		case obs.KindSelectDone:
			c.selectDone = ev
			c.sameEvent = lastAccounted == i-1 &&
				events[lastAccounted].TS == ev.TS && events[lastAccounted].Node == ev.Node
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
// close: on a loss-free wire the credit of a request's reports and of its dead
// probes adds up to exactly TotalCredit, and selection runs in the very event
// that accounted for the last of them — whether or not a probe died. A
// collection of dead probes only selects nothing: the source's give-up timer
// ends that request. The trace passes the obs.Checker, including its
// complete-at-close invariant.
func TestCreditConservedOnRandomGraphs(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	clean, credited, empty := 0, 0, 0
	shapes := make(map[string]bool)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		mem, chk := &obs.MemSink{}, obs.NewChecker()
		c := cluster.New(cluster.Options{Seed: seed, IPNodes: 200, Peers: 40, Catalog: catalog(6), Trace: obs.MultiTracer{mem, obs.TracerFunc(chk.Add)}})
		req, shape := randomRequest(c, rand.New(rand.NewSource(seed)), uint64(seed))
		if req.FGraph == nil {
			t.Fatalf("seed=%d %s: function graph did not build", seed, shape)
		}
		c.Peers[int(req.Source)].Engine.Compose(req, func(bcp.Result) {})
		// Long enough for discovery + probing + the full window, short
		// enough that the closed collector is still around to inspect.
		c.Sim.Run(c.Sim.Now() + 8*time.Second)

		for _, v := range chk.Finish() {
			t.Errorf("seed=%d %s invariant: %s", seed, shape, v)
		}
		got := closeIn(mem.Events(), req.ID)
		credit, collecting := c.Peers[int(req.Dest)].Engine.CollectedCredit(req.ID)
		if !collecting {
			if got.returned+got.dropped != 0 {
				t.Errorf("seed=%d %s: %d probes returned, %d died, but no collector ran", seed, shape, got.returned, got.dropped)
			}
			continue
		}
		if credit != bcp.TotalCredit || got.credited != got.dropped {
			t.Errorf("seed=%d %s: collected credit %d != total %d (off by %d), %d of %d dead probes credited",
				seed, shape, credit, bcp.TotalCredit, int64(bcp.TotalCredit-credit), got.credited, got.dropped)
		}
		if got.returned == 0 {
			empty++
			if got.selectDone != nil {
				t.Errorf("seed=%d %s: every probe died, yet selection ran: %+v", seed, shape, got.selectDone)
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
			clean++
		} else {
			credited++
		}
		if !got.sameEvent || got.selectDone.Dur <= 0 {
			t.Errorf("seed=%d %s: selection (early by %v) did not run in the event of the last report or credit (%d probes died)",
				seed, shape, got.selectDone.Dur, got.dropped)
		}
	}
	t.Logf("%d early closes without a dead probe, %d with, %d empty collections over %d seeds", clean, credited, empty, seeds)
	if clean == 0 || credited == 0 {
		t.Errorf("property covered %d closes without a dead probe and %d with, want both", clean, credited)
	}
	for _, s := range []string{"chai", "fork", "comm", "vari"} {
		if !shapes[s] {
			t.Errorf("no %s… request reached its destination", s)
		}
	}
}

// splitRequest returns a builder of one cluster and request whose delay
// requirement sits inside the spread of its candidates' delays, so that part
// of its probes die on the QoS check while the rest return. The request's
// destination hosts none of its functions: faults on the links into it touch
// reports and credits, never a probe.
func splitRequest(t *testing.T) func(tr obs.Tracer) (*cluster.Cluster, *service.Request) {
	t.Helper()
	build := func(tr obs.Tracer) (*cluster.Cluster, *service.Request) {
		c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Trace: tr})
		req := req3(c, 1, 24)
		for hostsAny(c, req) {
			req.Dest++
		}
		return c, req
	}
	// Learn the spread of end-to-end delays the probes see, then replay on an
	// identical cluster with the requirement set inside that spread.
	c0, req0 := build(nil)
	res := compose(c0, req0)
	if !res.Ok || len(res.Backups) == 0 {
		t.Fatal("baseline composition has no alternatives to split")
	}
	var delays []float64
	for _, g := range append(res.Backups, res.Best) {
		delays = append(delays, g.QoS[qos.Delay])
	}
	sort.Float64s(delays)
	lo, hi := delays[0], delays[len(delays)-1]
	if lo == hi {
		t.Fatal("all candidates have the same delay")
	}
	return func(tr obs.Tracer) (*cluster.Cluster, *service.Request) {
		c, req := build(tr)
		req.QoSReq[qos.Delay] = (lo + hi) / 2
		return c, req
	}
}

// composeCredit is compose, also returning the credit req's destination had
// collected 8 s in, while its closed collector is still kept.
func composeCredit(c *cluster.Cluster, req *service.Request) (out bcp.Result, credit uint64) {
	c.Sim.Schedule(8*time.Second, func() { credit, _ = c.Peers[int(req.Dest)].Engine.CollectedCredit(req.ID) })
	return compose(c, req), credit
}

// hostsAny reports whether req's destination hosts a component of one of its
// functions.
func hostsAny(c *cluster.Cluster, req *service.Request) bool {
	for _, comp := range c.Peers[int(req.Dest)].Engine.LocalComponents() {
		if slices.Contains(req.FGraph.Functions(), comp.Function) {
			return true
		}
	}
	return false
}

// collectPhase is request req's collect phase in the span tree its trace evs
// builds: the destination's wait between its last probe and selection.
func collectPhase(t *testing.T, evs []obs.Event, req uint64) time.Duration {
	t.Helper()
	b := span.NewBuilder()
	for _, ev := range evs {
		b.Add(ev)
	}
	tr := b.Build().Tree(req)
	if tr == nil {
		t.Fatalf("the trace holds no tree for request %d", req)
	}
	return tr.Phases.Collect
}

// TestDroppedProbeReturnsItsCredit forces part of a request's probes to die on
// the QoS check while others return: each dead probe sends its credit to the
// destination, so the collector closes in the event of the later of its last
// report and its last credit — not at the paper's window, CollectTimeout +
// n·CollectPerHop after the first, as it did while dead probes took their
// credit with them — and the success waited nothing after it.
func TestDroppedProbeReturnsItsCredit(t *testing.T) {
	mem, chk := &obs.MemSink{}, obs.NewChecker()
	c, req := splitRequest(t)(obs.MultiTracer{mem, obs.TracerFunc(chk.Add)})
	out := compose(c, req)
	got := closeIn(mem.Events(), req.ID)
	if got.dropped == 0 || got.collected == 0 || got.selectDone == nil {
		t.Fatalf("setup did not split the probes: %+v", got)
	}
	if got.credited != got.dropped || !got.sameEvent || got.selectDone.TS != got.last {
		t.Fatalf("%d of %d dead probes credited; selection at %v, want in the event of the last report or credit at %v",
			got.credited, got.dropped, got.selectDone.TS, got.last)
	}
	if bound := got.first + collectWindow(req); got.selectDone.Dur != bound-got.last || got.selectDone.Dur <= 0 {
		t.Fatalf("select.done early by %v, want %v before the window bound %v", got.selectDone.Dur, bound-got.last, bound)
	}
	if wait := collectPhase(t, mem.Events(), req.ID); !out.Ok || wait >= time.Millisecond {
		t.Fatalf("ok=%v collect phase %v, want a success that waited < 1ms after its last probe", out.Ok, wait)
	}
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}
}

// TestDuplicatedCreditCountsOnce duplicates every message into the
// destination on a wire without hardening: each dead probe's credit arrives
// twice, and the collector must count it once. Counted twice, a copy would
// stand in for a live sibling's equal share, and collection would close before
// that sibling reported (or overshoot the total and wait out the window).
func TestDuplicatedCreditCountsOnce(t *testing.T) {
	mem, chk := &obs.MemSink{}, obs.NewChecker()
	c, req := splitRequest(t)(obs.MultiTracer{mem, obs.TracerFunc(chk.Add)})
	dup := simnet.FaultPlan{Seed: 1, Links: map[[2]p2p.NodeID]simnet.LinkFaults{}}
	for _, p := range c.Peers {
		dup.Links[[2]p2p.NodeID{p.Node.ID(), req.Dest}] = simnet.LinkFaults{Dup: 1}
	}
	c.ApplyFaults(dup)
	out, credit := composeCredit(c, req)
	got := closeIn(mem.Events(), req.ID)
	if got.dropped == 0 || got.collected == 0 || got.credited != got.dropped {
		t.Fatalf("%d of %d dead probes credited, %d collected", got.credited, got.dropped, got.collected)
	}
	if credit != bcp.TotalCredit || got.selectDone == nil || !got.sameEvent || got.selectDone.Dur <= 0 || !out.Ok {
		t.Fatalf("credit %d of %d, select.done %+v in the event of the last report or credit: %v, ok=%v",
			credit, bcp.TotalCredit, got.selectDone, got.sameEvent, out.Ok)
	}
	dups := 0
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindNetFault && ev.Note == obs.FaultDup && ev.Comp == bcp.MsgCredit {
			dups++
		}
	}
	if dups < got.dropped {
		t.Fatalf("%d credit copies duplicated for %d dead probes", dups, got.dropped)
	}
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}
}

// TestLostCreditFallsBackToWindow loses on the wire the credit of the last
// probe of a request to die: the sum stays short, and the collector selects
// at the paper's window bound, CollectTimeout + n·CollectPerHop after the
// first report or credit, as it did for every request that lost a probe
// before dead probes returned their credit.
func TestLostCreditFallsBackToWindow(t *testing.T) {
	build := splitRequest(t)
	mem := &obs.MemSink{}
	c, req := build(mem)
	compose(c, req)
	var last obs.Event
	for _, ev := range mem.Events() {
		if ev.Req == req.ID && ev.Kind == obs.KindProbeDropped {
			last = ev
		}
	}

	// Replay, with the dying probe's peer cut off the destination for the
	// instant its credit leaves.
	mem, chk := &obs.MemSink{}, obs.NewChecker()
	c, req = build(obs.MultiTracer{mem, obs.TracerFunc(chk.Add)})
	c.Net.SetFaults(simnet.FaultPlan{Partitions: []simnet.Partition{{
		A: []p2p.NodeID{last.Node}, B: []p2p.NodeID{req.Dest}, From: last.TS, Until: last.TS + 1}}})
	out := compose(c, req)
	var lost []string
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindNetFault {
			lost = append(lost, ev.Comp)
		}
	}
	got := closeIn(mem.Events(), req.ID)
	if len(lost) != 1 || lost[0] != bcp.MsgCredit || got.collected == 0 || got.credited != got.dropped-1 {
		t.Fatalf("want exactly one credit lost, lost %v: %+v", lost, got)
	}
	window := collectWindow(req)
	if want := got.first + window; got.selectDone == nil || got.selectDone.TS != want || got.selectDone.Dur != 0 {
		t.Fatalf("selection %+v, want exactly at the window bound %v", got.selectDone, want)
	}
	if wait := collectPhase(t, mem.Events(), req.ID); !out.Ok || wait <= 0 || wait > window {
		t.Fatalf("ok=%v collect phase %v, want a success that waited inside the %v window", out.Ok, wait, window)
	}
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}
}

// TestEmptyCollectionSendsNothing kills every probe of a request on the QoS
// check: their credit alone completes the collection, which selects nothing
// and answers nothing — no select.done, no bcp.result — and the source's
// give-up timer ends the request.
func TestEmptyCollectionSendsNothing(t *testing.T) {
	mem, chk := &obs.MemSink{}, obs.NewChecker()
	c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Trace: obs.MultiTracer{mem, obs.TracerFunc(chk.Add)}})
	req := req3(c, 1, 24)
	req.QoSReq[qos.Delay] = 1 // no branch gets past its second hop
	results := c.Net.Stats().ByType[bcp.MsgResult]
	out, credit := composeCredit(c, req)
	got := closeIn(mem.Events(), req.ID)
	if got.dropped == 0 || got.returned != 0 || got.credited != got.dropped || credit != bcp.TotalCredit {
		t.Fatalf("want every probe dead and credited: %+v, credit %d of %d", got, credit, bcp.TotalCredit)
	}
	if got.selectDone != nil || c.Net.Stats().ByType[bcp.MsgResult] != results {
		t.Fatalf("an empty collection answered: select.done %+v, %d results", got.selectDone, c.Net.Stats().ByType[bcp.MsgResult]-results)
	}
	if out.Ok || out.SetupTime < bcp.GiveUpTimeout {
		t.Fatalf("ok=%v after %v, want the give-up timer's failure", out.Ok, out.SetupTime)
	}
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}
}

// TestCollectPhaseGate holds the gain: on a loss-free 200-peer cluster the
// destination's residual wait after its last probe (the collect phase of each
// success's span tree) has a median below 1 ms — it was the full ~2 s window
// before early close.
func TestCollectPhaseGate(t *testing.T) {
	cat := chaosCatalog(20)
	spans := span.NewBuilder()
	c := cluster.New(cluster.Options{Seed: 3, IPNodes: 1000, Peers: 200, Catalog: cat, Trace: obs.TracerFunc(spans.Add)})
	gen := workload.NewGenerator(workload.Config{
		Catalog: cat, Peers: 200, MinFuncs: 2, MaxFuncs: 4,
		Budget: 20, DelayReqMin: 500, DelayReqMax: 2000,
	}, c.Rng)
	var ok []uint64
	const nReqs = 60
	for i := 0; i < nReqs; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*500*time.Millisecond, func() {
			c.Peers[int(req.Source)].Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					ok = append(ok, res.ReqID)
				}
			})
		})
	}
	c.Sim.RunUntilIdle()
	f := spans.Build()
	var waits []time.Duration
	for _, id := range ok {
		waits = append(waits, f.Tree(id).Phases.Collect)
	}
	if len(waits) < nReqs/2 {
		t.Fatalf("only %d of %d compositions succeeded", len(waits), nReqs)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if p50 := waits[len(waits)/2]; p50 >= time.Millisecond {
		t.Fatalf("collect phase p50 = %v over %d setups, want < 1ms", p50, len(waits))
	}
}
