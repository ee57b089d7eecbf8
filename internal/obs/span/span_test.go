package span

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/workload"
)

const goldenTrace = "../../../testdata/golden_trace.jsonl.gz"

func buildGolden(t *testing.T) *Forest {
	t.Helper()
	b := NewBuilder()
	if err := obs.StreamTrace(goldenTrace, func(ev obs.Event) error {
		b.Add(ev)
		return nil
	}); err != nil {
		t.Fatalf("stream golden trace: %v", err)
	}
	return b.Build()
}

func TestGoldenTreeShape(t *testing.T) {
	f := buildGolden(t)
	if len(f.Trees) == 0 {
		t.Fatal("no trees built from golden trace")
	}
	if len(f.Orphans) != 0 {
		t.Fatalf("golden trace produced orphans: %+v", f.Orphans)
	}
	for _, tr := range f.Trees {
		if !tr.Done {
			t.Errorf("req %d never completed in golden trace", tr.Req)
		}
		if tr.Root == nil || tr.Root.Kind != "compose" {
			t.Fatalf("req %d root is not a compose span", tr.Req)
		}
		if tr.Root.Dur() != tr.Wall {
			t.Errorf("req %d root span %v != wall %v", tr.Req, tr.Root.Dur(), tr.Wall)
		}
		kinds := map[string]int{}
		tr.Root.Walk(func(sp *Span, depth int) {
			kinds[sp.Kind]++
			if sp.End < sp.Start {
				t.Errorf("req %d span %q ends before it starts", tr.Req, sp.Name)
			}
			if sp.Start < tr.Root.Start || sp.End > tr.Root.End {
				t.Errorf("req %d span %q [%v,%v] escapes root [%v,%v]",
					tr.Req, sp.Name, sp.Start, sp.End, tr.Root.Start, tr.Root.End)
			}
		})
		if kinds["discovery"] != 1 {
			t.Errorf("req %d: %d discovery spans", tr.Req, kinds["discovery"])
		}
		if tr.Ok {
			if kinds["probe"] == 0 {
				t.Errorf("req %d succeeded without probe spans", tr.Req)
			}
			if kinds["collect"] != 1 || kinds["commit"] != 1 {
				t.Errorf("req %d: collect=%d commit=%d spans", tr.Req, kinds["collect"], kinds["commit"])
			}
			if kinds["admit"] == 0 {
				t.Errorf("req %d succeeded without admissions", tr.Req)
			}
		}
	}
}

func TestGoldenPhasesPartitionWall(t *testing.T) {
	f := buildGolden(t)
	okTrees := 0
	f.All(func(tr *Tree) {
		p := tr.Phases
		if p.Total() != tr.Wall {
			t.Errorf("req %d phases sum %v != wall %v", tr.Req, p.Total(), tr.Wall)
		}
		if p.Named() > tr.Wall {
			t.Errorf("req %d named phases %v exceed wall %v", tr.Req, p.Named(), tr.Wall)
		}
		for _, d := range []time.Duration{p.Discovery, p.Probe, p.Collect, p.Commit, p.Wait} {
			if d < 0 {
				t.Errorf("req %d has a negative phase: %+v", tr.Req, p)
			}
		}
		if tr.Ok {
			okTrees++
			// The acceptance bar: ≥95% of every successful setup's latency is
			// attributed to a named phase (the partition makes it exactly 100%).
			if p.Attribution() < 0.95 {
				t.Errorf("req %d attribution %.2f < 0.95 (%+v)", tr.Req, p.Attribution(), p)
			}
		}
	})
	if okTrees == 0 {
		t.Fatal("golden trace has no successful setups to check attribution on")
	}
}

func TestGoldenCriticalPathEndsAtTerminal(t *testing.T) {
	f := buildGolden(t)
	f.All(func(tr *Tree) {
		if len(tr.Critical) < 2 {
			t.Fatalf("req %d critical path too short: %+v", tr.Req, tr.Critical)
		}
		first, last := tr.Critical[0], tr.Critical[len(tr.Critical)-1]
		if first.What != "compose.start" {
			t.Errorf("req %d critical path starts at %q", tr.Req, first.What)
		}
		if !strings.HasPrefix(last.What, "compose.done") {
			t.Errorf("req %d critical path ends at %q, not the terminal event", tr.Req, last.What)
		}
		var gaps time.Duration
		for i, st := range tr.Critical {
			if i > 0 && st.TS < tr.Critical[i-1].TS {
				t.Errorf("req %d critical path goes back in time at step %d", tr.Req, i)
			}
			gaps += st.Gap
		}
		if gaps != last.TS-first.TS {
			t.Errorf("req %d gaps sum %v != span %v", tr.Req, gaps, last.TS-first.TS)
		}
		if tr.Done && last.TS-first.TS != tr.Wall {
			t.Errorf("req %d critical path covers %v, wall is %v", tr.Req, last.TS-first.TS, tr.Wall)
		}
	})
}

func TestGoldenReportsDeterministic(t *testing.T) {
	render := func() string {
		f := buildGolden(t)
		var b strings.Builder
		b.WriteString(Summary(f, "summary").String())
		b.WriteString(PhaseTable(f, "phases").String())
		b.WriteString(SlowTable(f, 5, "slow").String())
		for _, tr := range f.Slowest(3) {
			b.WriteString(Waterfall(tr))
			b.WriteString(Critical(tr))
		}
		return b.String()
	}
	if render() != render() {
		t.Fatal("identical traces rendered different reports")
	}
}

func TestOrphansReportedNotDropped(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	b := NewBuilder()
	b.Add(obs.ComposeStart(0, 3, 42, 2, 10))
	// Malformed lineage: forwarded probe whose parent was never emitted.
	b.Add(obs.ProbeSent(ms(1), 7, 42, 9, "fn2", "p9/fn2.1", 5, 1, 102, 999))
	// Termination of a probe that never existed.
	b.Add(obs.ProbeReturned(ms(2), 9, 42, 1, 2, 256, 555))
	// Collection referencing an unknown probe.
	b.Add(obs.ProbeCollected(ms(3), 1, 42, 9, 2, 777))
	// Request with activity but no compose.start.
	b.Add(obs.SelectDone(ms(4), 1, 99, 3, 1, 0))
	b.Add(obs.ComposeDone(ms(5), 3, 42, false, ms(5)))
	f := b.Build()

	wantReasons := []string{
		"probe split from unknown parent",
		"termination of unknown probe",
		"collected unknown probe",
		"request without compose.start",
	}
	for _, want := range wantReasons {
		found := false
		for _, o := range f.Orphans {
			if o.Reason == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("orphan reason %q not reported; got %+v", want, f.Orphans)
		}
	}
	// Orphaned events still appear in the trees instead of vanishing.
	tr := f.Tree(1, 42)
	if tr == nil {
		t.Fatal("tree 42 missing")
	}
	probes := 0
	tr.Root.Walk(func(sp *Span, _ int) {
		if sp.Kind == "probe" {
			probes++
		}
	})
	if probes == 0 {
		t.Error("orphan-lineage probes dropped from the tree")
	}
	if f.Tree(1, 99) == nil {
		t.Error("start-less request dropped from the forest")
	}
}

func TestFederationLinking(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sub := func(seg int) uint64 { return uint64(1)<<62 | 9<<4 | uint64(seg) }
	b := NewBuilder()
	// Federated parent request 9 with two sub-compositions that each ran BCP.
	// Events are added in timestamp order, the way every trace is written —
	// the builder treats a clock regression as a new run's boundary.
	b.Add(obs.ComposeStart(0, 2, 9, 3, 20))
	each := func(fn func(seg, node int, id uint64)) {
		for seg := 0; seg < 2; seg++ {
			fn(seg, 4+7*seg, sub(seg))
		}
	}
	each(func(seg, node int, id uint64) { b.Add(obs.ComposeStart(ms(1), obsNode(node), id, 2, 10)) })
	each(func(seg, node int, id uint64) {
		b.Add(obs.ProbeSent(ms(2), obsNode(node), id, obsNode(node+1), "f", "c", 5, 0, id*10+1, 0))
	})
	each(func(seg, node int, id uint64) {
		b.Add(obs.ProbeReturned(ms(3), obsNode(node+1), id, obsNode(node+2), 1, 64, id*10+1))
	})
	each(func(seg, node int, id uint64) {
		b.Add(obs.ProbeCollected(ms(4), obsNode(node+2), id, obsNode(node+1), 1, id*10+1))
	})
	each(func(seg, node int, id uint64) { b.Add(obs.SelectDone(ms(5), obsNode(node+2), id, 1, 1, 0)) })
	each(func(seg, node int, id uint64) {
		b.Add(obs.ComposeDone(ms(6+seg), obsNode(node), id, true, ms(6+seg)))
	})
	each(func(seg, node int, id uint64) { b.Add(obs.FedPrepare(ms(7+seg), obsNode(node), 9, id, seg)) })
	b.Add(obs.FedCommit(ms(10), 4, 9, sub(0), 0))
	b.Add(obs.FedCommit(ms(11), 11, 9, sub(1), 1))
	b.Add(obs.ComposeDone(ms(12), 2, 9, true, ms(12)))
	f := b.Build()

	if len(f.Trees) != 1 {
		t.Fatalf("want 1 top-level tree (subs claimed), got %d", len(f.Trees))
	}
	parent := f.Trees[0]
	if parent.Req != 9 || len(parent.Subs) != 2 {
		t.Fatalf("parent=%d subs=%d", parent.Req, len(parent.Subs))
	}
	if f.Tree(1, sub(1)) == nil {
		t.Fatal("sub tree not findable through the forest")
	}
	if p := parent.Phases; p.Total() != parent.Wall || p.Attribution() < 0.95 {
		t.Errorf("federated parent phases %+v (wall %v)", p, parent.Wall)
	}
	last := parent.Critical[len(parent.Critical)-1]
	if !strings.HasPrefix(last.What, "compose.done") {
		t.Errorf("federated critical path ends at %q", last.What)
	}
	hasSeg := false
	for _, st := range parent.Critical {
		if strings.HasPrefix(st.What, "[seg ") {
			hasSeg = true
		}
	}
	if !hasSeg {
		t.Errorf("federated critical path never descends into the slowest segment: %+v", parent.Critical)
	}
	two := 0
	parent.Root.Walk(func(sp *Span, _ int) {
		if sp.Kind == "sub" {
			two++
		}
	})
	if two != 2 {
		t.Errorf("2PC span has %d sub children", two)
	}
}

func TestStreamingMatchesBuffered(t *testing.T) {
	var evs []obs.Event
	if err := obs.StreamTrace(goldenTrace, func(ev obs.Event) error { evs = append(evs, ev); return nil }); err != nil {
		t.Fatal(err)
	}
	buffered := NewBuilder()
	for _, ev := range evs {
		buffered.Add(ev)
	}
	a := Summary(buffered.Build(), "s").String() + PhaseTable(buffered.Build(), "p").String()
	f := buildGolden(t)
	b := Summary(f, "s").String() + PhaseTable(f, "p").String()
	if a != b {
		t.Fatalf("streaming and buffered builds disagree:\n%s\n---\n%s", a, b)
	}
}

// runEvents composes each request once, request i from offset+10i ms on,
// every one with the probe ID 10+req.
func runEvents(offset int, reqs ...uint64) []obs.Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var evs []obs.Event
	for i, req := range reqs {
		t0, pid := offset+10*i, 10+req
		evs = append(evs,
			obs.ComposeStart(ms(t0+1), 3, req, 2, 10),
			obs.ProbeSent(ms(t0+2), 3, req, 4, "f", "c", 5, 0, pid, 0),
			obs.ProbeReturned(ms(t0+3), 4, req, 3, 1, 64, pid),
			obs.ProbeCollected(ms(t0+4), 5, req, 4, 1, pid),
			obs.SelectDone(ms(t0+5), 5, req, 1, 1, 0),
			obs.ComposeDone(ms(t0+6), 3, req, true, ms(5)))
	}
	return evs
}

// addSweep folds two concatenated runs (sweep cells) into b, each opened by
// a run.start and composing the same request IDs with the same probe IDs.
func addSweep(b *Builder, reqs ...uint64) {
	for seed := int64(1); seed <= 2; seed++ {
		addAll(b, append([]obs.Event{obs.RunStart(seed)}, runEvents(0, reqs...)...))
	}
}

// TestRunBoundariesScopeIDs: a run.start, and nothing else, opens a run.
// Request and probe IDs reused across runs are not duplicates; a live
// runtime's stamps, which go backward where a goroutine stamped an event
// before another took the sink, stay one run; and a second run whose clock
// starts after the first one ended is still a run of its own.
func TestRunBoundariesScopeIDs(t *testing.T) {
	live := runEvents(0, 1, 2, 3)
	for k := 6; k < len(live); k += 6 {
		// Each compose.done written after the next request's compose.start.
		live[k-1], live[k] = live[k], live[k-1]
	}
	later := append([]obs.Event{obs.RunStart(1)}, runEvents(0, 7)...)
	later = append(append(later, obs.RunStart(2)), runEvents(100, 7)...)
	for _, tc := range []struct {
		name string
		add  func(b *Builder)
		runs int
		reqs []uint64
	}{
		{"two cells", func(b *Builder) { addSweep(b, 7) }, 2, []uint64{7, 7}},
		{"live stamps out of order", func(b *Builder) { addAll(b, live) }, 1, []uint64{1, 2, 3}},
		{"second cell starts later", func(b *Builder) { addAll(b, later) }, 2, []uint64{7, 7}},
	} {
		b := NewBuilder()
		tc.add(b)
		f := b.Build()
		if f.Runs != tc.runs {
			t.Errorf("%s: runs = %d, want %d", tc.name, f.Runs, tc.runs)
		}
		if len(f.Orphans) != 0 {
			t.Errorf("%s: orphans %+v", tc.name, f.Orphans)
		}
		var reqs []uint64
		for _, tr := range f.Trees {
			reqs = append(reqs, tr.Req)
			if !tr.Ok || tr.Phases.Attribution() != 1 {
				t.Errorf("%s: tree %+v not fully rebuilt", tc.name, tr)
			}
		}
		if !slices.Equal(reqs, tc.reqs) {
			t.Errorf("%s: trees of requests %v, want one per request %v", tc.name, reqs, tc.reqs)
		}
	}
}

func addAll(b *Builder, evs []obs.Event) {
	for _, ev := range evs {
		b.Add(ev)
	}
}

// TestSweepSummaryCountsEveryCell: a sweep trace whose two cells reuse
// request IDs 1..n summarizes to 2n requests — keyed by ID alone it would be
// n, each folded across cells — with every event counted under its kind.
func TestSweepSummaryCountsEveryCell(t *testing.T) {
	b := NewBuilder()
	addSweep(b, 1, 2, 3)
	f := b.Build()
	sum := 0
	for _, n := range f.Kinds {
		sum += n
	}
	if f.Events != 38 || sum != f.Events {
		t.Fatalf("%d events, %d summed over kinds %v; want 38 both ways (36 and 2 run.start)", f.Events, sum, f.Kinds)
	}
	rows := strings.Join(strings.Fields(Summary(f, "sweep").String()), " ")
	for _, want := range []string{
		"runs (sweep cells) 2", "requests 6", "completed 6", "ok 6", "orphan events 0",
		"events.compose.done 6", "events.compose.start 6", "events.probe.collected 6",
		"events.probe.returned 6", "events.probe.sent 6", "events.select.done 6",
	} {
		if !strings.Contains(rows, want) {
			t.Errorf("summary lacks %q:\n%s", want, rows)
		}
	}
}

func obsNode(n int) p2p.NodeID { return p2p.NodeID(n) }

// TestSwitchoverAdmitsUnderRecovery: on a churned run, a request's commit
// span holds only the admissions of its own setup, inside [select.done,
// compose.done]; the admissions and rejections its switchovers made later
// sit under its recovery span, and no admission is lost between the two.
func TestSwitchoverAdmitsUnderRecovery(t *testing.T) {
	mem := &obs.MemSink{}
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{Seed: 7, IPNodes: 600, Peers: 80, Recovery: &rc, Trace: mem})
	gen := workload.NewGenerator(workload.Config{
		Catalog: cluster.Catalog(20), Peers: 80, MinFuncs: 2, MaxFuncs: 3, Budget: 40,
		DelayReqMin: 4000, DelayReqMax: 8000, FailReq: 0.02,
	}, c.Rng)
	origin := c.Sim.Now()
	plan := cluster.Plan{Horizon: origin + 6*time.Minute,
		Churn: []cluster.Churn{{Rng: c.Rng, Frac: 0.05, DownFor: 2 * time.Minute}}}
	for i := 0; i < 60; i++ {
		plan.Arrivals = append(plan.Arrivals, cluster.Arrival{At: origin + time.Duration(i)*time.Second, Req: gen.Next()})
	}
	for at := time.Minute; at < 6*time.Minute; at += time.Minute {
		plan.Churn[0].Ticks = append(plan.Churn[0].Ticks, origin+at)
	}
	c.Start(plan, nil).Finish()

	b := NewBuilder()
	for _, ev := range mem.Events() {
		b.Add(ev)
	}
	f := b.Build()
	placed, switched := 0, 0
	f.All(func(tr *Tree) {
		for _, sp := range tr.Root.Children {
			for _, ch := range sp.Children {
				if ch.Kind != "admit" && ch.Kind != "reject" {
					continue
				}
				placed++
				switch {
				case sp.Kind == "commit" && (ch.Start < sp.Start || ch.End > sp.End):
					t.Errorf("req %d: %s at %v outside the commit span [%v, %v]", tr.Req, ch.Name, ch.Start, sp.Start, sp.End)
				case sp.Kind == "recovery" && tr.Done && ch.Start <= tr.Root.End:
					t.Errorf("req %d: %s at %v under recovery, before compose.done at %v", tr.Req, ch.Name, ch.Start, tr.Root.End)
				case sp.Kind == "recovery":
					switched++
				}
			}
		}
	})
	if want := f.Kinds[obs.KindSessionAdmit] + f.Kinds[obs.KindSessionReject]; placed != want {
		t.Errorf("%d admissions and rejections placed in spans, the trace has %d", placed, want)
	}
	if switched == 0 {
		t.Fatalf("no switchover admission in %d: the run exercised nothing", placed)
	}
	t.Logf("%d admissions and rejections, %d of them by switchovers", placed, switched)
}

// TestCreditIsACollectionBoundary: a dead probe's probe.credited ends the
// probe phase like a report's probe.collected, as the collector's lastAt does
// for bcp.Result, and the critical path runs through the dead probe's
// lineage when its credit closed the collection. A request all of whose
// probes died selects nothing and keeps the Wait attribution.
func TestCreditIsACollectionBoundary(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	b := NewBuilder()
	b.Add(obs.ComposeStart(0, 3, 42, 1, 10))
	b.Add(obs.DiscDone(ms(1), 3, 42, true, ms(1)))
	b.Add(obs.ProbeSent(ms(2), 3, 42, 7, "f", "p7/f", 5, 0, 101, 0))
	b.Add(obs.ProbeSent(ms(2), 3, 42, 8, "f", "p8/f", 5, 0, 102, 0))
	b.Add(obs.ProbeReturned(ms(3), 7, 42, 1, 1, 200, 101))
	b.Add(obs.ProbeDropped(ms(4), 8, 42, "f", "p8/f", "shed", 0, 102))
	b.Add(obs.ProbeCollected(ms(5), 1, 42, 7, 1, 101))
	b.Add(obs.ProbeCredited(ms(6), 1, 42, 8, 102))
	b.Add(obs.SelectDone(ms(6), 1, 42, 1, 1, ms(900)))
	b.Add(obs.ComposeDone(ms(9), 3, 42, true, ms(9)))
	b.Add(obs.ComposeStart(ms(10), 3, 43, 1, 10))
	b.Add(obs.DiscDone(ms(11), 3, 43, true, ms(1)))
	b.Add(obs.ProbeSent(ms(12), 3, 43, 8, "f", "p8/f", 5, 0, 201, 0))
	b.Add(obs.ProbeDropped(ms(13), 8, 43, "f", "p8/f", "shed", 0, 201))
	b.Add(obs.ProbeCredited(ms(14), 1, 43, 8, 201))
	b.Add(obs.ComposeDone(ms(100), 3, 43, false, ms(90)))
	f := b.Build()
	if len(f.Orphans) != 0 {
		t.Fatalf("orphans: %+v", f.Orphans)
	}
	if got, want := f.Tree(1, 42).Phases, (Phases{Discovery: ms(1), Probe: ms(5), Commit: ms(3)}); got != want {
		t.Errorf("phases %+v, want %+v", got, want)
	}
	var path []string
	for _, st := range f.Tree(1, 42).Critical {
		path = append(path, st.What)
	}
	if got, want := strings.Join(path, " | "), "compose.start | disc.done (ok) | probe p8/f → n8 | "+
		"dropped(shed), credit → n1 | probe.credited (last) | select.done (1 qualified) | compose.done (ok)"; got != want {
		t.Errorf("critical path\n got %s\nwant %s", got, want)
	}
	if got, want := f.Tree(1, 43).Phases, (Phases{Discovery: ms(1), Wait: ms(89)}); got != want {
		t.Errorf("empty collection phases %+v, want %+v", got, want)
	}
}

// TestExpiryFiledUnderItsRequest: a lease lapsing after the session ended is
// a point span of its request, not an orphan, and does not stretch the
// request's wall.
func TestExpiryFiledUnderItsRequest(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	b := NewBuilder()
	b.Add(obs.ComposeStart(0, 3, 42, 1, 10))
	b.Add(obs.SessionAdmit(ms(5), 7, 42, "p7/f"))
	b.Add(obs.ComposeDone(ms(8), 3, 42, true, ms(8)))
	b.Add(obs.SessionExpire(ms(900), 7, 42, "p7/f", p2p.NoNode))
	b.Add(obs.SessionExpire(ms(900), 7, 42, "", 3))
	f := b.Build()
	if len(f.Orphans) != 0 {
		t.Fatalf("expiries orphaned: %+v", f.Orphans)
	}
	tr := f.Trees[0]
	var names []string
	for _, sp := range tr.Root.Children {
		if sp.Kind == "expire" {
			names = append(names, sp.Name)
		}
	}
	if want := []string{"lease expired p7/f", "lease expired link → n3"}; !slices.Equal(names, want) || tr.Wall != ms(8) {
		t.Fatalf("expire spans %q, wall %v; want %q, wall 8ms", names, tr.Wall, want)
	}
}
