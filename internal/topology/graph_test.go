package topology

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// neighbors is node u's half-edges in insertion order, read from the CSR
// arrays of the graph.
func neighbors(g *Graph, u int) []Edge {
	var out []Edge
	for i := g.off[u]; i < g.off[u+1]; i++ {
		out = append(out, Edge{To: int(g.to[i]), Latency: g.w[i]})
	}
	return out
}

func hasEdge(g *Graph, u, v int) bool {
	for _, e := range neighbors(g, u) {
		if e.To == v {
			return true
		}
	}
	return false
}

// connected reports whether every node is reachable from node 0.
func connected(g *Graph) bool {
	for _, d := range g.Dijkstra(0) {
		if math.IsInf(d, 1) {
			return false
		}
	}
	return true
}

func TestNewGraphBasics(t *testing.T) {
	if g := newGraph(5, nil); g.N() != 5 || g.M() != 0 || g.Degree(3) != 0 {
		t.Fatalf("no links: N=%d M=%d", g.N(), g.M())
	}
	g := newGraph(5, []ipLink{{0, 1, 10}, {1, 2, 20}})
	if g.N() != 5 || g.M() != 2 {
		t.Fatalf("N=%d M=%d after two links", g.N(), g.M())
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1)=%d", g.Degree(1))
	}
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 0) {
		t.Fatal("undirected edge should be visible from both ends")
	}
	if hasEdge(g, 0, 2) {
		t.Fatal("nonexistent edge reported")
	}
}

func TestNewGraphDropsSelfLoopsAndRepeats(t *testing.T) {
	if g := newGraph(3, []ipLink{{1, 1, 5}}); g.M() != 0 || g.Degree(1) != 0 {
		t.Fatal("self-loop should be dropped")
	}
	g := newGraph(3, []ipLink{{0, 1, 5}, {1, 0, 7}, {0, 1, 9}})
	if g.M() != 1 || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("repeated pair should be dropped")
	}
	if e := neighbors(g, 1); e[0] != (Edge{To: 0, Latency: 5}) {
		t.Fatalf("node 1 lists %+v, want the first link's weight 5", e[0])
	}
}

// TestNewGraphRejectsBadLatency: the searches assume finite weights >= 0, and
// a weight outside that range must fail loudly at construction, wherever it
// sits in the list, not skew distances later. Zero is in range.
func TestNewGraphRejectsBadLatency(t *testing.T) {
	for _, bad := range []float64{-1, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, edges := range [][]ipLink{{{0, 1, bad}}, {{0, 1, 1}, {1, 2, bad}}, {{2, 2, bad}}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("newGraph accepted latency %v in %v", bad, edges)
					}
				}()
				newGraph(3, edges)
			}()
		}
	}
	g := newGraph(2, []ipLink{{0, 1, 0}})
	if d := g.Dijkstra(0); d[1] != 0 {
		t.Fatalf("zero-weight edge: dist %v", d)
	}
}

func TestDijkstraSimplePath(t *testing.T) {
	// 0 -1ms- 1 -2ms- 2, plus a slow direct 0-2 link of 10ms.
	g := newGraph(4, []ipLink{{0, 1, 1}, {1, 2, 2}, {0, 2, 10}})
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
	if !connected(g) {
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

// Property: Dijkstra distances satisfy the triangle inequality over direct
// edges: dist[v] <= dist[u] + w(u,v) for every edge (u,v).
func TestDijkstraRelaxationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GeneratePowerLaw(100, 2, 1, 20, rng)
		dist := g.Dijkstra(rng.Intn(g.N()))
		for u := 0; u < g.N(); u++ {
			for _, e := range neighbors(g, u) {
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
			if !connected(g) {
				t.Fatalf("n=%d m=%d: disconnected", n, m)
			}
		}
	}
}

// TestEdgeIndexConsistency packs a randomized edge list, duplicate and
// self-loop attempts included, and checks the CSR against the list: no node
// lists itself or a neighbor twice, both halves of every link are packed,
// M is half the half-edges, each pair carries the weight of its first link
// and every pair the list joins is there. byW must hold each row in
// ascending weight, equal weights in row order.
func TestEdgeIndexConsistency(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(11))
	var edges []ipLink
	first := make(map[[2]int]float64) // the first weight given each pair
	for i := 0; i < 300; i++ {
		u, v, w := rng.Intn(n), rng.Intn(n), 1+rng.Float64()
		edges = append(edges, ipLink{int32(u), int32(v), w})
		if _, ok := first[[2]int{u, v}]; !ok && u != v {
			first[[2]int{u, v}], first[[2]int{v, u}] = w, w
		}
	}
	g := newGraph(n, edges)
	half := 0
	for u := 0; u < n; u++ {
		listed := make(map[int]bool)
		for _, e := range neighbors(g, u) {
			if e.To == u || listed[e.To] {
				t.Fatalf("node %d lists %d twice or itself", u, e.To)
			}
			listed[e.To] = true
			if w, ok := first[[2]int{u, e.To}]; !ok || e.Latency != w {
				t.Fatalf("half-edge %d-%d @%v: the list's first weight is %v (joined: %v)", u, e.To, e.Latency, w, ok)
			}
			back := false
			for _, r := range neighbors(g, e.To) {
				back = back || r == Edge{To: u, Latency: e.Latency}
			}
			if !back {
				t.Fatalf("half-edge %d-%d @%v has no other half", u, e.To, e.Latency)
			}
			half++
		}
		row := g.byW[g.off[u]:g.off[u+1]]
		for i, e := range row {
			if e < g.off[u] || e >= g.off[u+1] || i > 0 && (g.w[row[i-1]] > g.w[e] || g.w[row[i-1]] == g.w[e] && row[i-1] >= e) {
				t.Fatalf("node %d: weight order %v is not its row %d..%d by weight", u, row, g.off[u], g.off[u+1])
			}
		}
	}
	if half != 2*g.M() || half != len(first) || len(g.byW) != half {
		t.Fatalf("%d half-edges, M=%d, %d joined pairs, %d in the weight order", half, g.M(), len(first)/2, len(g.byW))
	}
}

// legacyPowerLaw replays GeneratePowerLaw's draws the way it made them when
// it built its graph link by link: into the legacy graph, whose seed-clique
// targets read its own degrees, and into the edge list of the same links.
func legacyPowerLaw(n, m int, minLat, maxLat float64, rng *rand.Rand) (*legacyGraph, []ipLink) {
	lg := newLegacyGraph(n)
	var edges []ipLink
	add := func(u, v int) {
		l := minLat + rng.Float64()*(maxLat-minLat)
		lg.addEdge(u, v, l)
		edges = append(edges, ipLink{int32(u), int32(v), l})
	}
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			add(u, v)
		}
	}
	var targets []int
	for u := 0; u <= m; u++ {
		for range lg.adj[u] {
			targets = append(targets, u)
		}
	}
	for u := m + 1; u < n; u++ {
		for _, v := range pickPreferential(targets, m, u, rng, nil) {
			add(u, v)
			targets = append(targets, u, v)
		}
	}
	return lg, edges
}

// TestGeneratePowerLawWorldsUnchanged pins the generated worlds: on the
// paper-shape, paper-scale and scale-workload graphs, GeneratePowerLaw's
// off/to/w must equal, bit for bit, both newGraph's packing of the replayed
// draws and the legacy graph's adjacency lists the replay appended link by
// link — so a skipped or extra draw, or a reordered half-edge, fails here —
// and no node may list a neighbor twice, which the legacy edge set enforced.
func TestGeneratePowerLawWorldsUnchanged(t *testing.T) {
	worlds := []struct {
		n    int
		seed int64
	}{{3000, 1}, {3000, 2}, {3000, 3}, {3000, 4}, {3000, 5}, {10000, 1}, {300000, 79}}
	for _, w := range worlds {
		if w.n > 10000 && testing.Short() {
			continue
		}
		g := GeneratePowerLaw(w.n, 2, 2, 30, rand.New(rand.NewSource(w.seed)))
		lg, edges := legacyPowerLaw(w.n, 2, 2, 30, rand.New(rand.NewSource(w.seed)))
		p := newGraph(w.n, edges)
		if !slices.Equal(g.off, p.off) || !slices.Equal(g.to, p.to) || !slices.Equal(g.byW, p.byW) ||
			!slices.EqualFunc(g.w, p.w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%d nodes seed %d: generated CSR differs from the replayed draws packed", w.n, w.seed)
		}
		if g.M() != lg.m || g.M() != len(edges) {
			t.Fatalf("%d nodes seed %d: M=%d, legacy %d, %d draws", w.n, w.seed, g.M(), lg.m, len(edges))
		}
		seen := make([]int, w.n)
		for u := 0; u < w.n; u++ {
			row := neighbors(g, u)
			if len(row) != len(lg.adj[u]) {
				t.Fatalf("%d nodes seed %d: node %d has %d half-edges, legacy %d", w.n, w.seed, u, len(row), len(lg.adj[u]))
			}
			for i, e := range row {
				if e.To != lg.adj[u][i].To || math.Float64bits(e.Latency) != math.Float64bits(lg.adj[u][i].Latency) {
					t.Fatalf("%d nodes seed %d: node %d half-edge %d is %+v, legacy %+v", w.n, w.seed, u, i, e, lg.adj[u][i])
				}
				if seen[e.To] == u+1 {
					t.Fatalf("%d nodes seed %d: node %d lists %d twice", w.n, w.seed, u, e.To)
				}
				seen[e.To] = u + 1
			}
		}
	}
}

// TestPairDistancesAnyWorkerCount runs the parallel pass at GOMAXPROCS 1, 2
// and 8 — including no nodes, one node and fewer nodes than workers — and
// requires the matrix to equal the heap oracle's distances per source, bit
// for bit: rows are independent, so the worker count cannot show. The
// oracle, not Dijkstra, because Dijkstra sweeps the same bypass view.
func TestPairDistancesAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(14))
	g := GeneratePowerLaw(300, 2, 1, 25, rng)
	lg := newLegacyGraph(g.N())
	for u := 0; u < g.N(); u++ {
		for _, e := range neighbors(g, u) {
			lg.addEdge(u, e.To, e.Latency)
		}
	}
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
				want := lg.dijkstra(src)
				if len(got[i]) != n {
					t.Fatalf("GOMAXPROCS=%d: row %d has %d entries, want %d", procs, i, len(got[i]), n)
				}
				for j, dst := range nodes {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[dst]) {
						t.Fatalf("GOMAXPROCS=%d: PairDistances[%d][%d]=%v, heap oracle %v", procs, i, j, got[i][j], want[dst])
					}
				}
			}
		}
	}
}

// TestPairDistancesAllocs ratchets the peer-latency pass at two workers: the
// matrix (one spine, one row per source), the bypass view (itself, its to,
// leg and relay arrays) plus per-worker scratch — a sweepState whose ring
// buckets, as many as the view's plan, grow by doubling to their working
// size, a goroutine — and nothing per source after that. One object per
// source (a dist vector, a heap) would put the 200-source pass 200 over.
func TestPairDistancesAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(16))
	g := GeneratePowerLaw(2000, 2, 2, 30, rng)
	nodes := rng.Perm(g.N())[:200]
	const workers = 2
	budget := float64(1 + len(nodes) + 4 + workers*(6+5*g.bypass().ringLen))
	got := testing.AllocsPerRun(5, func() { g.PairDistances(nodes) })
	t.Logf("PairDistances(200 of 2000): %.0f allocs (matrix %d), budget %.0f", got, 1+len(nodes), budget)
	if got > budget {
		t.Fatalf("PairDistances allocates %.0f objects, budget %.0f", got, budget)
	}
}

// TestRelaysOnGeneratedWorlds pins that the bypass engages where the repo
// sweeps: on the §6.1 generator's graphs, 3,000 and 10,000 nodes at seeds
// 1–3, at least 45 % of the nodes are relays, and no relay neighbors one. A
// relay rule that silently matched nothing would leave every distance test
// green and the sweeps scanning every node.
func TestRelaysOnGeneratedWorlds(t *testing.T) {
	for _, n := range []int{3000, 10000} {
		for seed := int64(1); seed <= 3; seed++ {
			g := GeneratePowerLaw(n, 2, 2, 30, rand.New(rand.NewSource(seed)))
			rs, relay := relays(g), g.bypass().relay
			for _, x := range rs {
				for _, e := range neighbors(g, x) {
					if relay[e.To] {
						t.Fatalf("%d nodes seed %d: relays %d and %d are neighbors", n, seed, x, e.To)
					}
				}
			}
			t.Logf("%d nodes seed %d: %d relays", n, seed, len(rs))
			if len(rs)*100 < 45*n {
				t.Fatalf("%d nodes seed %d: %d relays, want at least 45 %%", n, seed, len(rs))
			}
		}
	}
}

// TestBuildOverlayAnyWorkerCount builds the same overlay at GOMAXPROCS 1 and
// 8: the mesh searches and the peer-latency pass are the parallel steps, and
// they must leave the links, their order, latencies and capacities and the
// latency matrix untouched.
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
	for a := range one.lat {
		for b, l := range one.lat[a] {
			if l != eight.lat[a][b] {
				t.Fatalf("latency %d-%d differs: %v at GOMAXPROCS=1, %v at 8", a, b, l, eight.lat[a][b])
			}
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
