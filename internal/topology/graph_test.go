package topology

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewGraphBasics(t *testing.T) {
	g := NewGraph(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 20)
	if g.M() != 2 {
		t.Fatalf("M=%d after two edges", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge should be visible from both ends")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("nonexistent edge reported")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1)=%d", g.Degree(1))
	}
}

func TestAddEdgeIgnoresSelfLoopsAndDuplicates(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(1, 1, 5)
	if g.M() != 0 {
		t.Fatal("self-loop should be ignored")
	}
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 0, 7)
	if g.M() != 1 {
		t.Fatal("duplicate edge should be ignored")
	}
}

// TestAddEdgeRejectsBadLatency: the searches assume finite weights >= 0, and
// a weight outside that range must fail loudly at insertion, not skew
// distances later. Zero is in range.
func TestAddEdgeRejectsBadLatency(t *testing.T) {
	for _, bad := range []float64{-1, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			g := NewGraph(2)
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge accepted latency %v", bad)
				}
				if g.M() != 0 {
					t.Errorf("rejected latency %v still left %d edges", bad, g.M())
				}
			}()
			g.AddEdge(0, 1, bad)
		}()
	}
	g := NewGraph(2)
	g.AddEdge(0, 1, 0)
	if d := g.Dijkstra(0); d[1] != 0 {
		t.Fatalf("zero-weight edge: dist %v", d)
	}
}

func TestDijkstraSimplePath(t *testing.T) {
	// 0 -1ms- 1 -2ms- 2, plus a slow direct 0-2 link of 10ms.
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(0, 2, 10)
	dist := g.Dijkstra(0)
	if dist[0] != 0 || dist[1] != 1 || dist[2] != 3 {
		t.Fatalf("dist=%v", dist)
	}
	if !math.IsInf(dist[3], 1) {
		t.Fatal("isolated node should be unreachable")
	}
}

func TestGeneratePowerLawConnectedAndSized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GeneratePowerLaw(500, 2, 2, 30, rng)
	if g.N() != 500 {
		t.Fatalf("N=%d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("power-law graph must be connected")
	}
	// Every non-seed node attaches >= 2 links.
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) < 2 {
			t.Fatalf("node %d degree %d < 2", u, g.Degree(u))
		}
	}
}

func TestGeneratePowerLawSkewedDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := GeneratePowerLaw(2000, 2, 2, 30, rng)
	maxDeg := 0
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(2*g.M()) / float64(g.N())
	// A power-law graph has hubs far above the mean degree; an Erdős–Rényi
	// graph of this size would have max degree within ~3x of the mean.
	if float64(maxDeg) < 8*avg {
		t.Fatalf("degree distribution not skewed: max=%d avg=%.1f", maxDeg, avg)
	}
}

func TestDegreeHistogramSums(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := GeneratePowerLaw(200, 2, 2, 30, rng)
	h := g.DegreeHistogram()
	total := 0
	for _, c := range h {
		total += c.Count
	}
	if total != g.N() {
		t.Fatalf("histogram counts %d nodes, want %d", total, g.N())
	}
}

// TestDegreeHistogramDeterministic is the regression test for the old
// map-ordered output: the histogram must come back sorted ascending by
// degree, identically on every call, with no zero-count or duplicate rows.
func TestDegreeHistogramDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := GeneratePowerLaw(500, 2, 2, 30, rng)
	h := g.DegreeHistogram()
	for i := 1; i < len(h); i++ {
		if h[i].Degree <= h[i-1].Degree {
			t.Fatalf("degrees not strictly ascending at %d: %v then %v", i, h[i-1], h[i])
		}
	}
	for _, c := range h {
		if c.Count <= 0 {
			t.Fatalf("zero-count row %+v", c)
		}
	}
	for trial := 0; trial < 3; trial++ {
		again := g.DegreeHistogram()
		if len(again) != len(h) {
			t.Fatalf("length changed across calls: %d vs %d", len(again), len(h))
		}
		for i := range h {
			if again[i] != h[i] {
				t.Fatalf("row %d changed across calls: %+v vs %+v", i, again[i], h[i])
			}
		}
	}
}

// Property: Dijkstra distances satisfy the triangle inequality over direct
// edges: dist[v] <= dist[u] + w(u,v) for every edge (u,v).
func TestDijkstraRelaxationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GeneratePowerLaw(100, 2, 1, 20, rng)
		dist := g.Dijkstra(rng.Intn(g.N()))
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Neighbors(u) {
				if dist[e.To] > dist[u]+e.Latency+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dijkstra is symmetric on undirected graphs — the distance from a
// to b equals the distance from b to a.
func TestDijkstraSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := GeneratePowerLaw(150, 2, 1, 20, rng)
	for trial := 0; trial < 10; trial++ {
		a, b := rng.Intn(g.N()), rng.Intn(g.N())
		da := g.Dijkstra(a)
		db := g.Dijkstra(b)
		if math.Abs(da[b]-db[a]) > 1e-9 {
			t.Fatalf("asymmetric distance: %v vs %v", da[b], db[a])
		}
	}
}

func TestDeterminismWithSeed(t *testing.T) {
	g1 := GeneratePowerLaw(200, 2, 2, 30, rand.New(rand.NewSource(9)))
	g2 := GeneratePowerLaw(200, 2, 2, 30, rand.New(rand.NewSource(9)))
	if g1.M() != g2.M() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", g1.M(), g2.M())
	}
	d1 := g1.Dijkstra(0)
	d2 := g2.Dijkstra(0)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("same seed produced different distances at node %d", i)
		}
	}
}

// TestPickPreferentialSaturated drives the degenerate case that used to spin
// forever: a targets multiset saturated by the excluded node. The bounded
// rejection loop must terminate and the scan fallback must return whatever
// distinct non-excluded nodes exist.
func TestPickPreferentialSaturated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Only the excluded node in targets: nothing to pick, but must return.
	if got := pickPreferential([]int{7, 7, 7, 7}, 2, 7, rng, nil); len(got) != 0 {
		t.Fatalf("picked %v from a fully excluded multiset", got)
	}
	// One distinct eligible node, m=3: returns just that node.
	got := pickPreferential([]int{7, 7, 5, 7}, 3, 7, rng, nil)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("got %v, want [5]", got)
	}
	// Two eligible nodes, m=2: both, no duplicates.
	got = pickPreferential([]int{1, 1, 1, 2, 3, 3}, 2, 1, rng, nil)
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("got %v, want two distinct nodes", got)
	}
	for _, v := range got {
		if v == 1 {
			t.Fatalf("picked the excluded node: %v", got)
		}
	}
}

// TestTinyPowerLawTerminates exercises the whole generator on graphs small
// enough that every node is in everyone's exclusion shadow.
func TestTinyPowerLawTerminates(t *testing.T) {
	for n := 2; n < 8; n++ {
		for m := 1; m < 4; m++ {
			g := GeneratePowerLaw(n, m, 1, 5, rand.New(rand.NewSource(int64(n*10+m))))
			if !g.IsConnected() {
				t.Fatalf("n=%d m=%d: disconnected", n, m)
			}
		}
	}
}

// TestEdgeIndexConsistency checks the O(1) edge set agrees with the
// adjacency lists after randomized construction with duplicate attempts.
func TestEdgeIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGraph(40)
	for i := 0; i < 300; i++ {
		g.AddEdge(rng.Intn(40), rng.Intn(40), 1+rng.Float64())
	}
	edges := 0
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if !g.HasEdge(u, e.To) || !g.HasEdge(e.To, u) {
				t.Fatalf("adjacency edge %d-%d missing from index", u, e.To)
			}
			edges++
		}
	}
	if edges != 2*g.M() {
		t.Fatalf("adjacency lists hold %d half-edges, M=%d", edges, g.M())
	}
	for u := 0; u < g.N(); u++ {
		if g.HasEdge(u, u) {
			t.Fatalf("self-loop at %d", u)
		}
	}
}

// TestPairDistancesAnyWorkerCount runs the parallel pass at GOMAXPROCS 1, 2
// and 8 — including no nodes, one node and fewer nodes than workers — and
// requires the matrix to equal a sequential Dijkstra per source entry for
// entry: rows are independent, so the worker count cannot show.
func TestPairDistancesAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(14))
	g := GeneratePowerLaw(300, 2, 1, 25, rng)
	perm := rng.Perm(g.N())
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 50} {
			nodes := perm[:n]
			got := g.PairDistances(nodes)
			if len(got) != n {
				t.Fatalf("GOMAXPROCS=%d: %d rows for %d nodes", procs, len(got), n)
			}
			for i, src := range nodes {
				want := g.Dijkstra(src)
				if len(got[i]) != n {
					t.Fatalf("GOMAXPROCS=%d: row %d has %d entries, want %d", procs, i, len(got[i]), n)
				}
				for j, dst := range nodes {
					if got[i][j] != want[dst] {
						t.Fatalf("GOMAXPROCS=%d: PairDistances[%d][%d]=%v, Dijkstra=%v", procs, i, j, got[i][j], want[dst])
					}
				}
			}
		}
	}
}

// TestPairDistancesAllocs ratchets the peer-latency pass at two workers: the
// matrix (one spine, one row per source) plus per-worker scratch — a
// sweepState whose ring buckets grow by doubling to their working size, a
// goroutine — and nothing per source after that. One object per source (a
// dist vector, a heap) would put the 200-source pass 200 over.
func TestPairDistancesAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(16))
	g := GeneratePowerLaw(2000, 2, 2, 30, rng)
	nodes := rng.Perm(g.N())[:200]
	const workers = 2
	budget := float64(1 + len(nodes) + workers*(6+5*g.ringLen))
	got := testing.AllocsPerRun(5, func() { g.PairDistances(nodes) })
	t.Logf("PairDistances(200 of 2000): %.0f allocs (matrix %d), budget %.0f", got, 1+len(nodes), budget)
	if got > budget {
		t.Fatalf("PairDistances allocates %.0f objects, budget %.0f", got, budget)
	}
}

// TestBuildOverlayAnyWorkerCount builds the same overlay at GOMAXPROCS 1 and
// 8: the peer-latency pass is the only parallel step, and it must leave the
// links, their order, latencies and capacities untouched.
func TestBuildOverlayAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(procs int) *Overlay {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(15))
		g := GeneratePowerLaw(500, 2, 2, 30, rng)
		return BuildOverlay(g, OverlayConfig{NumPeers: 120, Degree: 4, CapMin: 1000, CapMax: 5000}, rng)
	}
	one, eight := build(1), build(8)
	if len(one.links) != len(eight.links) {
		t.Fatalf("link counts differ: %d at GOMAXPROCS=1, %d at 8", len(one.links), len(eight.links))
	}
	for i := range one.links {
		if one.links[i] != eight.links[i] {
			t.Fatalf("link %d differs: %+v at GOMAXPROCS=1, %+v at 8", i, one.links[i], eight.links[i])
		}
	}
}

// BenchmarkGeneratePaperScale is the acceptance benchmark for the paper's
// dimensions: a 10,000-node power-law IP graph plus a 1,000-peer overlay
// (one Dijkstra per peer) must complete in seconds.
func BenchmarkGeneratePaperScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		g := GeneratePowerLaw(10000, 2, 2, 30, rng)
		ov := BuildOverlay(g, OverlayConfig{NumPeers: 1000, Degree: 4}, rng)
		if ov.N() != 1000 {
			b.Fatal("bad overlay")
		}
	}
}
