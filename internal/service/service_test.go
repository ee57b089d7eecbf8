package service

import (
	"math"
	"testing"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
)

func res(cpu, mem float64) qos.Resources {
	var r qos.Resources
	r[qos.CPU] = cpu
	r[qos.Memory] = mem
	return r
}

func qvec(d float64) qos.Vector {
	var v qos.Vector
	v[qos.Delay] = d
	return v
}

func comp(id, fn string, peer int, fail float64) Component {
	return Component{ID: id, Function: fn, Peer: p2p.NodeID(peer), Res: res(1, 10), FailProb: fail}
}

// twoFnGraph builds a service graph over Linear("a","b") with the given
// availability at each hop.
func twoFnGraph(availA, availB qos.Resources) (*Graph, *Request) {
	fg := fgraph.Linear("a", "b")
	req := &Request{
		FGraph:    fg,
		QoSReq:    qvec(100),
		Res:       res(1, 10),
		Bandwidth: 100,
		Budget:    4,
	}
	g := &Graph{
		Pattern: fg,
		Comps: map[int]Snapshot{
			0: {Comp: comp("c0", "a", 1, 0.1), Avail: availA},
			1: {Comp: comp("c1", "b", 2, 0.2), Avail: availB},
		},
		Links: []LinkSnapshot{
			{FromFn: -1, ToFn: 0, BandAvail: 1000},
			{FromFn: 0, ToFn: 1, BandAvail: 1000},
			{FromFn: 1, ToFn: -1, BandAvail: 1000},
		},
		QoS: qvec(50),
	}
	return g, req
}

func TestCompatible(t *testing.T) {
	a := Component{OutFormat: 3}
	b := Component{InFormat: 3}
	c := Component{InFormat: 4}
	wild := Component{InFormat: FormatAny, OutFormat: FormatAny}
	if !Compatible(a, b) {
		t.Error("matching formats should be compatible")
	}
	if Compatible(a, c) {
		t.Error("mismatched formats should be incompatible")
	}
	if !Compatible(a, wild) || !Compatible(wild, c) {
		t.Error("wildcards should always be compatible")
	}
}

func TestRequestValidate(t *testing.T) {
	fg := fgraph.Linear("a", "b")
	good := &Request{FGraph: fg, Budget: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []*Request{
		{FGraph: nil, Budget: 4},
		{FGraph: fg, Budget: 0},
		{FGraph: fg, Budget: 4, Quota: []int{1}},
		{FGraph: fg, Budget: 4, Bandwidth: -1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestWeightsNormalize(t *testing.T) {
	w := Weights{Bandwidth: 2}
	w.Res[qos.CPU] = 2
	n := w.Normalize()
	sum := n.Bandwidth
	for _, x := range n.Res {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
	// All-zero weights fall back to uniform.
	u := (Weights{}).Normalize()
	if u != DefaultWeights() {
		t.Fatal("zero weights should normalize to default")
	}
}

func TestGraphQualified(t *testing.T) {
	g, req := twoFnGraph(res(5, 50), res(5, 50))
	if !g.Qualified(req) {
		t.Fatal("graph should qualify")
	}
	// QoS violation.
	g.QoS = qvec(200)
	if g.Qualified(req) {
		t.Fatal("QoS-violating graph qualified")
	}
	g.QoS = qvec(50)
	// Resource violation at one hop.
	g.Comps[1] = Snapshot{Comp: g.Comps[1].Comp, Avail: res(0.5, 50)}
	if g.Qualified(req) {
		t.Fatal("resource-starved graph qualified")
	}
	g.Comps[1] = Snapshot{Comp: g.Comps[1].Comp, Avail: res(5, 50)}
	// Bandwidth violation on one link.
	g.Links[1].BandAvail = 50
	if g.Qualified(req) {
		t.Fatal("bandwidth-starved graph qualified")
	}
	g.Links[1].BandAvail = 1000
	// Incomplete assignment.
	delete(g.Comps, 0)
	if g.Qualified(req) {
		t.Fatal("incomplete graph qualified")
	}
}

func TestCostPrefersIdleHosts(t *testing.T) {
	// Same requirement, but the second graph's hosts are much more loaded.
	idle, req := twoFnGraph(res(10, 100), res(10, 100))
	busy, _ := twoFnGraph(res(1.2, 12), res(1.2, 12))
	w := DefaultWeights()
	ci, cb := idle.Cost(w, req), busy.Cost(w, req)
	if !(ci < cb) {
		t.Fatalf("idle cost %v should be below busy cost %v", ci, cb)
	}
}

func TestCostZeroAvailabilityInfinite(t *testing.T) {
	g, req := twoFnGraph(res(10, 100), res(0, 100))
	if c := g.Cost(DefaultWeights(), req); !math.IsInf(c, 1) {
		t.Fatalf("cost with zero availability = %v, want +Inf", c)
	}
	g2, req2 := twoFnGraph(res(10, 100), res(10, 100))
	g2.Links[0].BandAvail = 0
	if c := g2.Cost(DefaultWeights(), req2); !math.IsInf(c, 1) {
		t.Fatalf("cost with zero link bandwidth = %v, want +Inf", c)
	}
}

func TestCostBandwidthTerm(t *testing.T) {
	g, req := twoFnGraph(res(10, 100), res(10, 100))
	base := g.Cost(DefaultWeights(), req)
	g.Links[1].BandAvail = 120 // much tighter than 1000
	tight := g.Cost(DefaultWeights(), req)
	if !(tight > base) {
		t.Fatalf("tighter bandwidth should raise cost: %v vs %v", tight, base)
	}
}

func TestCostWeightCustomization(t *testing.T) {
	// CPU-heavy weighting must amplify a CPU-constrained hop more than a
	// memory-heavy weighting does.
	g, req := twoFnGraph(res(1.1, 100), res(10, 100))
	var wc, wm Weights
	wc.Res[qos.CPU] = 1
	wm.Res[qos.Memory] = 1
	if !(g.Cost(wc, req) > g.Cost(wm, req)) {
		t.Fatal("CPU weighting should dominate for CPU-constrained hop")
	}
}

func TestFailProb(t *testing.T) {
	g, _ := twoFnGraph(res(10, 100), res(10, 100))
	// Peers 1 and 2 with p=0.1 and p=0.2: 1 - 0.9*0.8 = 0.28.
	if f := g.FailProb(); math.Abs(f-0.28) > 1e-12 {
		t.Fatalf("FailProb=%v, want 0.28", f)
	}
	// Two components on the same peer count once.
	fg := fgraph.Linear("a", "b")
	g2 := &Graph{Pattern: fg, Comps: map[int]Snapshot{
		0: {Comp: comp("x", "a", 7, 0.1)},
		1: {Comp: comp("y", "b", 7, 0.1)},
	}}
	if f := g2.FailProb(); math.Abs(f-0.1) > 1e-12 {
		t.Fatalf("same-peer FailProb=%v, want 0.1", f)
	}
}

func TestOverlapAndContains(t *testing.T) {
	g1, _ := twoFnGraph(res(10, 100), res(10, 100))
	g2, _ := twoFnGraph(res(10, 100), res(10, 100))
	if g1.Overlap(g2) != 2 {
		t.Fatalf("identical graphs overlap=%d", g1.Overlap(g2))
	}
	g2.Comps[1] = Snapshot{Comp: comp("other", "b", 9, 0.1), Avail: res(10, 100)}
	if g1.Overlap(g2) != 1 {
		t.Fatalf("overlap=%d, want 1", g1.Overlap(g2))
	}
	if !g1.Contains("c0") || g1.Contains("other") {
		t.Fatal("Contains misreported")
	}
	if !g1.ContainsPeer(1) || g1.ContainsPeer(42) {
		t.Fatal("ContainsPeer misreported")
	}
}

func TestKeyDistinguishesAssignments(t *testing.T) {
	g1, _ := twoFnGraph(res(10, 100), res(10, 100))
	g2, _ := twoFnGraph(res(5, 5), res(5, 5)) // different snapshots, same comps
	if g1.Key() != g2.Key() {
		t.Fatal("Key should depend only on the assignment")
	}
	g2.Comps[1] = Snapshot{Comp: comp("other", "b", 9, 0.1)}
	if g1.Key() == g2.Key() {
		t.Fatal("different assignments share a Key")
	}
}

func TestComponentsSorted(t *testing.T) {
	g, _ := twoFnGraph(res(10, 100), res(10, 100))
	cs := g.Components()
	if len(cs) != 2 || cs[0].ID != "c0" || cs[1].ID != "c1" {
		t.Fatalf("Components=%v", cs)
	}
}

func TestGraphString(t *testing.T) {
	g, _ := twoFnGraph(res(10, 100), res(10, 100))
	if s := g.String(); s != "a→c0 b→c1" {
		t.Fatalf("String=%q", s)
	}
}

// TestCostAndKeyAllocs: scoring a graph and appending its assignment to a
// warm buffer — what selection does once per candidate — allocate nothing,
// and a rendered Key is one object, the string itself.
func TestCostAndKeyAllocs(t *testing.T) {
	g, req := twoFnGraph(res(10, 100), res(10, 100))
	w := DefaultWeights()
	if avg := testing.AllocsPerRun(100, func() { g.Cost(w, req) }); avg != 0 {
		t.Fatalf("Cost allocates %.0f objects, want 0", avg)
	}
	buf := g.AppendAssignment(nil)
	if string(buf) != "0=c0;1=c1;" || g.Key() != "a->b|0=c0;1=c1;" {
		t.Fatalf("assignment %q, key %q", buf, g.Key())
	}
	if avg := testing.AllocsPerRun(100, func() { buf = g.AppendAssignment(buf[:0]) }); avg != 0 {
		t.Fatalf("AppendAssignment into a warm buffer allocates %.0f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = g.Key() }); avg > 1 {
		t.Fatalf("Key allocates %.0f objects, want the string alone", avg)
	}
}
