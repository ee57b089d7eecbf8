package service

import (
	"math"
	"slices"
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
		Comps: []Snapshot{
			{Comp: comp("c0", "a", 1, 0.1), Avail: availA},
			{Comp: comp("c1", "b", 2, 0.2), Avail: availB},
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

// TestPsiWeightsSumToOne: the n+1 uniform weights of ψ sum to exactly 1,
// summed in the order the weights used to be normalized in, so scaling them
// to sum to 1 would change no bit of any cost.
func TestPsiWeightsSumToOne(t *testing.T) {
	sum := PsiWeight
	for range qos.NumResources {
		sum += PsiWeight
	}
	if sum != 1 || PsiWeight != 1/float64(qos.NumResources+1) {
		t.Fatalf("%d weights of %v sum to %v", qos.NumResources+1, PsiWeight, sum)
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
	g.Comps[0] = Snapshot{}
	if g.Qualified(req) {
		t.Fatal("incomplete graph qualified")
	}
}

// TestQualifiedWantsEverySlotAssigned: a graph with any one function
// unassigned, or with fewer slots than its pattern has functions, does not
// qualify, however ample the rest.
func TestQualifiedWantsEverySlotAssigned(t *testing.T) {
	for fn := 0; fn < 2; fn++ {
		g, req := twoFnGraph(res(5, 50), res(5, 50))
		g.Comps[fn] = Snapshot{Avail: res(5, 50)}
		if g.Qualified(req) {
			t.Fatalf("a graph with function %d unassigned qualified", fn)
		}
	}
	g, req := twoFnGraph(res(5, 50), res(5, 50))
	if g.Comps = g.Comps[:1]; g.Qualified(req) {
		t.Fatal("a graph with a slot missing qualified")
	}
}

// TestCloneOwnsItsAssignment: writing a clone's slots or links leaves the
// original as it was.
func TestCloneOwnsItsAssignment(t *testing.T) {
	g, _ := twoFnGraph(res(5, 50), res(5, 50))
	key := g.Key()
	c := g.Clone()
	c.Comps[0] = Snapshot{Comp: comp("other", "a", 9, 0.1)}
	c.Comps[1].Avail = res(1, 1)
	c.Links[0].BandAvail = 1
	if g.Key() != key || g.Comps[1].Avail != res(5, 50) || g.Links[0].BandAvail != 1000 {
		t.Fatalf("mutating a clone changed the original: %s, %v", g, g.Links[0])
	}
}

func TestCostPrefersIdleHosts(t *testing.T) {
	// Same requirement, but the second graph's hosts are much more loaded.
	idle, req := twoFnGraph(res(10, 100), res(10, 100))
	busy, _ := twoFnGraph(res(1.2, 12), res(1.2, 12))
	ci, cb := idle.Cost(req), busy.Cost(req)
	if !(ci < cb) {
		t.Fatalf("idle cost %v should be below busy cost %v", ci, cb)
	}
}

func TestCostZeroAvailabilityInfinite(t *testing.T) {
	g, req := twoFnGraph(res(10, 100), res(0, 100))
	if c := g.Cost(req); !math.IsInf(c, 1) {
		t.Fatalf("cost with zero availability = %v, want +Inf", c)
	}
	g2, req2 := twoFnGraph(res(10, 100), res(10, 100))
	g2.Links[0].BandAvail = 0
	if c := g2.Cost(req2); !math.IsInf(c, 1) {
		t.Fatalf("cost with zero link bandwidth = %v, want +Inf", c)
	}
}

func TestCostBandwidthTerm(t *testing.T) {
	g, req := twoFnGraph(res(10, 100), res(10, 100))
	base := g.Cost(req)
	g.Links[1].BandAvail = 120 // much tighter than 1000
	tight := g.Cost(req)
	if !(tight > base) {
		t.Fatalf("tighter bandwidth should raise cost: %v vs %v", tight, base)
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
	g2 := &Graph{Pattern: fg, Comps: []Snapshot{
		{Comp: comp("x", "a", 7, 0.1)},
		{Comp: comp("y", "b", 7, 0.1)},
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
	if avg := testing.AllocsPerRun(100, func() { g.Cost(req) }); avg != 0 {
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

// TestReservedPairsOrder pins the one enumeration every admission and release
// walks: each function's egress in index order, successors in Successors
// order and the receiver for a sink, then the sender's ingress (fn -1) to
// each source component. A sender hosting a component reserves its own
// ingress; an unassigned slot reserves nothing; a visit can stop the walk. A
// pair several service links map onto is visited once, where it first
// occurs, and the walk allocates nothing.
func TestReservedPairsOrder(t *testing.T) {
	type pair struct {
		fn       int
		from, to p2p.NodeID
	}
	b := fgraph.NewBuilder()
	for _, f := range []string{"a", "b", "c", "d"} {
		b.AddFunction(f)
	}
	diamond, err := b.AddDependency(0, 2).AddDependency(0, 1).AddDependency(1, 3).AddDependency(2, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	graph := func(pat *fgraph.Graph, peers ...int) *Graph {
		g := &Graph{Pattern: pat, Comps: make([]Snapshot, len(peers)), Req: &Request{Source: 1, Dest: 9}}
		for fn, p := range peers {
			if p >= 0 {
				g.Comps[fn].Comp = comp(pat.Function(fn), pat.Function(fn), p, 0)
			}
		}
		return g
	}
	for _, tc := range []struct {
		name  string
		g     *Graph
		limit int // visits before the walk is stopped; 0: none
		want  []pair
	}{
		{"chain, the sender hosts the source", graph(fgraph.Linear("a", "b", "c"), 1, 5, 6), 0,
			[]pair{{0, 1, 5}, {1, 5, 6}, {2, 6, 9}, {-1, 1, 1}}},
		{"diamond, one successor unassigned", graph(diamond, 2, 3, -1, 4), 0,
			[]pair{{0, 2, 3}, {1, 3, 4}, {3, 4, 9}, {-1, 1, 2}}},
		{"diamond", graph(diamond, 2, 3, 7, 4), 0,
			[]pair{{0, 2, 3}, {0, 2, 7}, {1, 3, 4}, {2, 7, 4}, {3, 4, 9}, {-1, 1, 2}}},
		{"diamond, stopped at the third pair", graph(diamond, 2, 3, 7, 4), 3,
			[]pair{{0, 2, 3}, {0, 2, 7}, {1, 3, 4}}},
		{"diamond, both middle functions on one peer feed the sink's", graph(diamond, 2, 3, 3, 4), 0,
			[]pair{{0, 2, 3}, {1, 3, 4}, {3, 4, 9}, {-1, 1, 2}}},
		{"diamond across the sender and one peer", graph(diamond, 2, 1, 1, 2), 0,
			[]pair{{0, 2, 1}, {1, 1, 2}, {3, 2, 9}}},
		{"chain, the ingress repeats an egress", graph(fgraph.Linear("a", "b", "c"), 5, 1, 5), 0,
			[]pair{{0, 5, 1}, {1, 1, 5}, {2, 5, 9}}},
	} {
		var got []pair
		done := tc.g.ReservedPairs(func(fn int, from, to p2p.NodeID) bool {
			got = append(got, pair{fn, from, to})
			return len(got) != tc.limit
		})
		if done != (tc.limit == 0) || !slices.Equal(got, tc.want) {
			t.Errorf("%s: ReservedPairs = %v after %v, want %v after %v", tc.name, done, got, tc.limit == 0, tc.want)
		}
		if tc.limit > 0 {
			continue
		}
		for _, p := range tc.want {
			if !tc.g.Reserves(p.from, p.to) {
				t.Errorf("%s: Reserves(%d, %d) = false", tc.name, p.from, p.to)
			}
		}
		if tc.g.Reserves(9, 1) {
			t.Errorf("%s: Reserves(9, 1) = true", tc.name)
		}
		n := 0
		if avg := testing.AllocsPerRun(100, func() { tc.g.ReservedPairs(func(int, p2p.NodeID, p2p.NodeID) bool { n++; return true }) }); avg != 0 {
			t.Errorf("%s: ReservedPairs allocates %.0f objects, want 0", tc.name, avg)
		}
	}
}
