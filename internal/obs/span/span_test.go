package span

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
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
	tr := f.Tree(42)
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
	if f.Tree(99) == nil {
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
	if f.Tree(sub(1)) == nil {
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
	evs, err := obs.LoadTrace(goldenTrace)
	if err != nil {
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

// addSweep folds two concatenated runs (sweep cells) into b, each composing
// the same request IDs with the same probe IDs; only the clock regression at
// the boundary separates them.
func addSweep(b *Builder, reqs ...uint64) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for run := 0; run < 2; run++ {
		for i, req := range reqs {
			t0, pid := 10*i, 10+req
			b.Add(obs.ComposeStart(ms(t0+1), 3, req, 2, 10))
			b.Add(obs.ProbeSent(ms(t0+2), 3, req, 4, "f", "c", 5, 0, pid, 0))
			b.Add(obs.ProbeReturned(ms(t0+3), 4, req, 3, 1, 64, pid))
			b.Add(obs.ProbeCollected(ms(t0+4), 5, req, 4, 1, pid))
			b.Add(obs.SelectDone(ms(t0+5), 5, req, 1, 1, 0))
			b.Add(obs.ComposeDone(ms(t0+6), 3, req, true, ms(5)))
		}
	}
}

func TestRunBoundariesScopeIDs(t *testing.T) {
	b := NewBuilder()
	addSweep(b, 7)
	f := b.Build()
	if f.Runs != 2 {
		t.Fatalf("runs = %d, want 2", f.Runs)
	}
	if len(f.Orphans) != 0 {
		t.Fatalf("ID reuse across runs misread as duplicates: %+v", f.Orphans)
	}
	if len(f.Trees) != 2 {
		t.Fatalf("want one tree per run, got %d", len(f.Trees))
	}
	for _, tr := range f.Trees {
		if tr.Req != 7 || !tr.Ok || tr.Phases.Attribution() != 1 {
			t.Errorf("run tree %+v not fully rebuilt", tr)
		}
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
	if f.Events != 36 || sum != f.Events {
		t.Fatalf("%d events, %d summed over kinds %v; want 36 both ways", f.Events, sum, f.Kinds)
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
