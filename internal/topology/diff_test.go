package topology

// Differential harness for the CSR rewrite: a frozen copy of the legacy
// slice-of-slices representation lives here as the reference implementation,
// and randomized graphs built edge-for-edge in both representations must
// agree exactly — degree histograms, PairDistances to the last bit, Route
// paths tie-broken identically. "Exactly" is the point: the CSR arrays pack
// half-edges in adjacency insertion order precisely so that relaxation order,
// float folds, and heap behavior are unchanged, and this harness is what
// certifies that claim instead of vibes.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// legacyGraph is the pre-CSR Graph: per-node []Edge adjacency plus a
// pair-keyed edge-set index. Kept verbatim (modulo lowercased names) as the
// differential reference.
type legacyGraph struct {
	n     int
	m     int
	adj   [][]Edge
	edges map[uint64]struct{}
}

func newLegacyGraph(n int) *legacyGraph {
	return &legacyGraph{n: n, adj: make([][]Edge, n), edges: make(map[uint64]struct{})}
}

func (g *legacyGraph) addEdge(u, v int, latency float64) {
	if u == v {
		return
	}
	key := pairKey(u, v)
	if _, dup := g.edges[key]; dup {
		return
	}
	g.edges[key] = struct{}{}
	g.adj[u] = append(g.adj[u], Edge{To: v, Latency: latency})
	g.adj[v] = append(g.adj[v], Edge{To: u, Latency: latency})
	g.m++
}

func (g *legacyGraph) degree(u int) int { return len(g.adj[u]) }

func (g *legacyGraph) dijkstra(src int) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := nodeHeap{pos: make([]int32, g.n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	h.update(dist, int32(src))
	for len(h.nodes) > 0 {
		u := h.pop(dist)
		du := dist[u]
		for _, e := range g.adj[u] {
			if nd := du + e.Latency; nd < dist[e.To] {
				dist[e.To] = nd
				h.update(dist, int32(e.To))
			}
		}
	}
	return dist
}

func (g *legacyGraph) pairDistances(nodes []int) [][]float64 {
	out := make([][]float64, len(nodes))
	for i, src := range nodes {
		dist := g.dijkstra(src)
		row := make([]float64, len(nodes))
		for j, dst := range nodes {
			row[j] = dist[dst]
		}
		out[i] = row
	}
	return out
}

func (g *legacyGraph) degreeHistogram() map[int]int {
	h := make(map[int]int)
	for u := 0; u < g.n; u++ {
		h[g.degree(u)]++
	}
	return h
}

// legacyRoute recomputes an overlay route with the pre-CSR algorithm: distPQ
// Dijkstra over the mutable o.adj link-index lists (which the frozen overlay
// retains), then the same backward prev-chain walk. Reading unexported fields
// is deliberate — the reference implementation must see exactly the links the
// CSR was packed from.
func legacyRoute(o *Overlay, a, b int) (Path, bool) {
	if a == b {
		return Path{Peers: []int{a}, Latency: 0}, true
	}
	n := o.N()
	dist := make([]float64, n)
	prevPeer := make([]int, n)
	prevLink := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevPeer[i] = -1
		prevLink[i] = -1
	}
	dist[a] = 0
	var pq distPQ
	pq.push(distItem{node: a, dist: 0})
	for pq.len() > 0 {
		it := pq.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, idx := range o.adj[it.node] {
			l := o.links[idx]
			to := l.u
			if to == it.node {
				to = l.v
			}
			if nd := it.dist + l.latency; nd < dist[to] {
				dist[to] = nd
				prevPeer[to] = it.node
				prevLink[to] = idx
				pq.push(distItem{node: to, dist: nd})
			}
		}
	}
	if math.IsInf(dist[b], 1) {
		return Path{}, false
	}
	var peers, links []int
	for at := b; at != a; at = prevPeer[at] {
		peers = append(peers, at)
		links = append(links, prevLink[at])
	}
	peers = append(peers, a)
	for i, j := 0, len(peers)-1; i < j; i, j = i+1, j-1 {
		peers[i], peers[j] = peers[j], peers[i]
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return Path{Peers: peers, Links: links, Latency: dist[b]}, true
}

// edgeScript is how buildBoth draws one script's weights and whether the
// script starts with a chain through every node.
type edgeScript struct {
	name     string
	weight   func(rng *rand.Rand) float64
	backbone bool
}

// friendly is the script the CSR rewrite was certified on: a connected
// backbone and weights from [1, 21), max/min under 21 — also the easy case
// for a bucket sweep, which is why adversarialScripts exists.
var friendly = edgeScript{"friendly", func(rng *rand.Rand) float64 { return 1 + rng.Float64()*20 }, true}

// oneOf draws a or b with equal probability.
func oneOf(a, b func(*rand.Rand) float64) func(*rand.Rand) float64 {
	return func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return a(rng)
		}
		return b(rng)
	}
}

func constant(w float64) func(*rand.Rand) float64 {
	return func(*rand.Rand) float64 { return w }
}

// adversarialScripts are the weight distributions a bucket sweep could get
// wrong where a heap would not: entries landing in the bucket being drained
// (zero and sub-width weights), every node of a level in one bucket (equal
// weights), a weight ratio far beyond the ring (the maxBucketsPerEdge floor
// must engage), weights the running sum absorbs (d+w == d), scales that
// overflow the bucket scale (subnormal weights), no positive weight at all,
// and graphs in pieces (+Inf rows, sources without edges).
var adversarialScripts = []edgeScript{
	{"zero-weight", oneOf(constant(0), friendly.weight), true},
	{"all-zero", constant(0), true},
	{"all-equal", constant(5), true},
	{"ratio-1e9", oneOf(func(rng *rand.Rand) float64 { return 1e-9 * (1 + rng.Float64()) }, friendly.weight), true},
	{"absorbed", oneOf(oneOf(constant(1e-300), constant(1e-17)), friendly.weight), true},
	{"subnormal", func(rng *rand.Rand) float64 { return float64(1+rng.Intn(40)) * 5e-324 }, true},
	{"disconnected", friendly.weight, false},
	{"disconnected-zero", oneOf(constant(0), constant(3)), false},
}

// buildBoth replays one deterministic edge script into both representations.
// Duplicate and self-loop attempts are part of the script on purpose: the
// dedup behavior must match too.
func buildBoth(rng *rand.Rand, n, attempts int, script edgeScript) (*Graph, *legacyGraph) {
	g := NewGraph(n)
	lg := newLegacyGraph(n)
	if script.backbone {
		// Chain so most of the graph is connected (a random chain first).
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			l := script.weight(rng)
			g.AddEdge(perm[i-1], perm[i], l)
			lg.addEdge(perm[i-1], perm[i], l)
		}
	}
	for i := 0; i < attempts; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		l := script.weight(rng)
		g.AddEdge(u, v, l)
		lg.addEdge(u, v, l)
	}
	g.Freeze()
	return g, lg
}

// diffDistances requires the production searches to return the heap
// oracle's distances to the bit (+Inf included): PairDistances over a random
// node subset, Dijkstra over the whole graph from a few sources.
func diffDistances(t *testing.T, g *Graph, lg *legacyGraph, rng *rand.Rand) {
	t.Helper()
	nodes := rng.Perm(g.N())[:min(g.N(), max(2, min(g.N()/4, 40)))]
	got := g.PairDistances(nodes)
	want := lg.pairDistances(nodes)
	for i := range nodes {
		for j := range nodes {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("PairDistances[%d][%d]: sweep %v, heap oracle %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	for _, src := range nodes[:min(len(nodes), 3)] {
		got, want := g.Dijkstra(src), lg.dijkstra(src)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("Dijkstra(%d)[%d]: sweep %v, heap oracle %v", src, v, got[v], want[v])
			}
		}
	}
}

func diffCheck(t *testing.T, g *Graph, lg *legacyGraph, rng *rand.Rand) {
	t.Helper()
	if g.M() != lg.m {
		t.Fatalf("edge counts differ: CSR %d, legacy %d", g.M(), lg.m)
	}

	// Degree histograms: the legacy map and the CSR sorted slice must hold
	// the same distribution.
	lh := lg.degreeHistogram()
	ch := g.DegreeHistogram()
	if len(ch) != len(lh) {
		t.Fatalf("histogram sizes differ: CSR %d rows, legacy %d", len(ch), len(lh))
	}
	for _, row := range ch {
		if lh[row.Degree] != row.Count {
			t.Fatalf("degree %d: CSR count %d, legacy %d", row.Degree, row.Count, lh[row.Degree])
		}
	}

	diffDistances(t, g, lg, rng)

	// Neighbors must come back in identical order: insertion order is the
	// contract the whole byte-identical claim rests on.
	for u := 0; u < g.N(); u++ {
		ge, le := g.Neighbors(u), lg.adj[u]
		if len(ge) != len(le) {
			t.Fatalf("node %d: CSR degree %d, legacy %d", u, len(ge), len(le))
		}
		for i := range ge {
			if ge[i] != le[i] {
				t.Fatalf("node %d half-edge %d: CSR %+v, legacy %+v", u, i, ge[i], le[i])
			}
		}
	}
}

func TestDiffGraphAgainstLegacy(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		g, lg := buildBoth(rng, n, n*3, friendly)
		diffCheck(t, g, lg, rng)
	}
}

// TestDiffAdversarialWeights runs the differential over the scripts chosen to
// break a bucket sweep, dense and sparse, and over the degenerate shapes: a
// single node, a source with no edges.
func TestDiffAdversarialWeights(t *testing.T) {
	for _, script := range adversarialScripts {
		t.Run(script.name, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(150)
				attempts := n * 3
				if !script.backbone {
					attempts = n / 2
				}
				g, lg := buildBoth(rng, n, attempts, script)
				diffCheck(t, g, lg, rng)
			}
		})
	}
	t.Run("single-node", func(t *testing.T) {
		g, lg := buildBoth(rand.New(rand.NewSource(1)), 1, 4, friendly)
		diffCheck(t, g, lg, rand.New(rand.NewSource(1)))
	})
	t.Run("isolated-source", func(t *testing.T) {
		g, lg := NewGraph(4), newLegacyGraph(4)
		g.AddEdge(1, 2, 3)
		lg.addEdge(1, 2, 3)
		got, want := g.Dijkstra(0), lg.dijkstra(0)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("Dijkstra(0)[%d]: sweep %v, heap oracle %v", v, got[v], want[v])
			}
		}
		if d := g.PairDistances([]int{0, 1, 3}); d[0][0] != 0 || !math.IsInf(d[0][1], 1) || !math.IsInf(d[1][2], 1) {
			t.Fatalf("PairDistances from an isolated source: %v", d)
		}
	})
}

// TestBucketPlan pins the ring the sweep runs on: 32 slots on the paper's
// §6.1 weights, the maxBucketsPerEdge floor on a 1e9 ratio, and a usable plan
// where there is no positive weight or only subnormal ones.
func TestBucketPlan(t *testing.T) {
	for _, c := range []struct {
		name         string
		minPos, maxW float64
		ring         int
	}{
		{"paper [2,30)", 2.0001, 29.9999, 32},
		{"all-equal", 5, 5, 4},
		{"ratio-1e9 floored", 1e-9, 21, 2048},
		{"no positive weight", math.Inf(1), 0, 4},
		{"subnormal", 5e-324, 200e-324, 4},
	} {
		inv, ring := bucketPlan(c.minPos, c.maxW)
		if ring != c.ring || math.IsInf(inv, 0) || math.IsNaN(inv) || int(c.maxW*inv)+3 > ring {
			t.Errorf("%s: bucketPlan(%v, %v) = scale %v, ring %d; want ring %d", c.name, c.minPos, c.maxW, inv, ring, c.ring)
		}
	}
}

// TestDiffGeneratedGraphs replays the generators' output into the legacy
// representation edge-for-edge (via Neighbors, which preserves insertion
// order within each node but not globally) and checks the order-insensitive
// agreements; the order-sensitive ones are covered by buildBoth scripts.
func TestDiffGeneratedGraphs(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := GeneratePowerLaw(150+int(seed)*50, 2, 2, 30, rng)
		lg := newLegacyGraph(g.N())
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Neighbors(u) {
				lg.addEdge(u, e.To, e.Latency)
			}
		}
		if lg.m != g.M() {
			t.Fatalf("seed %d: replay lost edges: %d vs %d", seed, lg.m, g.M())
		}
		lh := lg.degreeHistogram()
		for _, row := range g.DegreeHistogram() {
			if lh[row.Degree] != row.Count {
				t.Fatalf("seed %d degree %d: CSR %d, legacy %d", seed, row.Degree, row.Count, lh[row.Degree])
			}
		}
		// Distances do not depend on relaxation order (see Graph.sweep), so
		// the replay is an oracle for them too — on the paper's own weights.
		diffDistances(t, g, lg, rng)
	}
}

// TestDiffRoutePaths: the frozen link-CSR router must return the identical
// Path — peers, link indices, latency — as the legacy slice-walking router,
// for every source/destination pair, on meshes from sparse (degree 1, several
// components) to dense.
func TestDiffRoutePaths(t *testing.T) {
	for _, degree := range []int{1, 3, 6} {
		rng := rand.New(rand.NewSource(42))
		g := GeneratePowerLaw(400, 2, 2, 30, rng)
		o := BuildOverlay(g, OverlayConfig{NumPeers: 60, Degree: degree}, rng)
		for a := 0; a < o.N(); a++ {
			for b := 0; b < o.N(); b++ {
				got, gok := o.Route(a, b)
				want, wok := legacyRoute(o, a, b)
				if gok != wok {
					t.Fatalf("degree %v route %d->%d: CSR ok=%v, legacy ok=%v", degree, a, b, gok, wok)
				}
				if !gok {
					continue
				}
				if got.Latency != want.Latency || len(got.Peers) != len(want.Peers) {
					t.Fatalf("degree %v route %d->%d: CSR %+v, legacy %+v", degree, a, b, got, want)
				}
				for i := range got.Peers {
					if got.Peers[i] != want.Peers[i] {
						t.Fatalf("degree %v route %d->%d peer %d: CSR %v, legacy %v", degree, a, b, i, got.Peers, want.Peers)
					}
				}
				for i := range got.Links {
					if got.Links[i] != want.Links[i] {
						t.Fatalf("degree %v route %d->%d link %d: CSR %v, legacy %v", degree, a, b, i, got.Links, want.Links)
					}
				}
			}
		}
	}
}

// TestDiffCompactMesh: with identical seeds the compact (matrix-free) mesh
// builder must produce the same peers, the same links in the same order with
// the same capacities, and the same routes as the full-matrix builder —
// the truncated per-peer Dijkstra consumes no RNG and settles the same
// k-nearest sets the full selection finds. The compact build fans its
// searches over GOMAXPROCS workers, so it is held to that at 1, 2 and 8.
func TestDiffCompactMesh(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const seed = 99
	rngG := rand.New(rand.NewSource(seed))
	g := GeneratePowerLaw(2000, 2, 2, 30, rngG)

	full := BuildOverlay(g, OverlayConfig{NumPeers: 200, Degree: 4}, rand.New(rand.NewSource(7)))
	var comp *Overlay
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		comp = BuildOverlay(g, OverlayConfig{NumPeers: 200, Degree: 4, Compact: true}, rand.New(rand.NewSource(7)))

		if comp.Compact() == false || full.Compact() == true {
			t.Fatal("Compact() flags wrong")
		}
		for p := 0; p < full.N(); p++ {
			if full.PeerIP(p) != comp.PeerIP(p) {
				t.Fatalf("GOMAXPROCS=%d: peer %d hosts differ: %d vs %d", procs, p, full.PeerIP(p), comp.PeerIP(p))
			}
		}
		if len(full.links) != len(comp.links) {
			t.Fatalf("GOMAXPROCS=%d: link counts differ: full %d, compact %d", procs, len(full.links), len(comp.links))
		}
		for i := range full.links {
			if full.links[i] != comp.links[i] {
				t.Fatalf("GOMAXPROCS=%d: link %d differs: full %+v, compact %+v", procs, i, full.links[i], comp.links[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Intn(full.N()), rng.Intn(full.N())
		fp, fok := full.Route(a, b)
		cp, cok := comp.Route(a, b)
		if fok != cok || (fok && fp.Latency != cp.Latency) {
			t.Fatalf("route %d->%d: full (%v,%v), compact (%v,%v)", a, b, fp, fok, cp, cok)
		}
		// Linked pairs: the direct link carries the IP-shortest latency, and
		// by the triangle inequality no overlay detour beats it — so the
		// compact Latency fallback must match the full-matrix answer, modulo
		// a ULP: a detour folds different addends, and float addition is not
		// associative, so Route can come in one bit under the direct link.
		if fl, cl := full.Latency(a, b), comp.Latency(a, b); full.hasLink(a, b) &&
			math.Abs(fl-cl) > 1e-12*fl {
			t.Fatalf("linked latency %d-%d: full %v, compact %v", a, b, fl, cl)
		}
	}
}

// FuzzDiffGraph drives the same differential through the fuzzer: arbitrary
// seeds generate edge scripts replayed into both representations — the
// friendly script, then the adversarial one the seed selects
// (testdata/fuzz/FuzzDiffGraph/adversarial-* hold one seed per script).
func FuzzDiffGraph(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(424242))
	f.Add(int64(-99))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		g, lg := buildBoth(rng, n, n*2, friendly)
		diffCheck(t, g, lg, rng)
		script := adversarialScripts[uint64(seed)%uint64(len(adversarialScripts))]
		g, lg = buildBoth(rng, n, n, script)
		diffCheck(t, g, lg, rng)
	})
}
