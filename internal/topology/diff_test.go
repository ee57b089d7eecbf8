package topology

// Differential harness for the CSR representation and the bucket sweep: a
// frozen copy of the legacy slice-of-slices representation and a heap
// Dijkstra live here as the reference implementation, and randomized graphs
// built edge-for-edge in both representations must agree exactly — adjacency
// rows, PairDistances to the last bit, route tables (distances, predecessor
// peers and links) tie-broken identically. "Exactly" is the point: the CSR
// arrays pack half-edges in adjacency insertion order so that relaxation
// order and float folds are unchanged, the sweep's tie rule reproduces the
// heap's predecessors, and this harness is what certifies both claims.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Edge is one directed half of an undirected IP-layer link.
type Edge struct {
	To      int
	Latency float64 // one-way propagation delay in milliseconds
}

// pairKey packs an unordered node pair into one map key.
func pairKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

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

// dijkstra is the heap oracle: a textbook lazy-deletion Dijkstra on distPQ.
func (g *legacyGraph) dijkstra(src int) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	var pq distPQ
	pq.push(distItem{node: int32(src), dist: 0})
	for pq.len() > 0 {
		it := pq.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			if nd := it.dist + e.Latency; nd < dist[e.To] {
				dist[e.To] = nd
				pq.push(distItem{node: int32(e.To), dist: nd})
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

// legacyTable is the route table of source a by the heap reference: a
// textbook lazy-deletion Dijkstra on distPQ over the mutable o.adj link-index
// lists (which the frozen overlay retains), keeping the first predecessor
// that reaches a node's final distance. Reading unexported fields is
// deliberate — the reference must see exactly the links the CSR was packed
// from.
func legacyTable(o *Overlay, a int) routeTable {
	rt := newRouteTable(o.N())
	for i := range rt.dist {
		rt.dist[i], rt.prev[i] = math.Inf(1), step{-1, -1}
	}
	rt.dist[a] = 0
	var pq distPQ
	pq.push(distItem{node: int32(a), dist: 0})
	for pq.len() > 0 {
		it := pq.pop()
		if it.dist > rt.dist[it.node] {
			continue
		}
		for _, idx := range o.adj[it.node] {
			l := o.links[idx]
			to := l.u
			if to == int(it.node) {
				to = l.v
			}
			if nd := it.dist + l.latency; nd < rt.dist[to] {
				rt.dist[to], rt.prev[to] = nd, step{it.node, int32(idx)}
				pq.push(distItem{node: int32(to), dist: nd})
			}
		}
	}
	return rt
}

// sourceTable is the table Route answers a's queries from: the route cache's,
// fetched through the oracle every query goes through and then settled to
// the end through the resume path. o must have two peers.
func sourceTable(o *Overlay, a int) *routeTable {
	rt, _, _ := o.tree(a, (a+1)%o.N())
	o.r.settle(-1, rt, &o.r.sweepState)
	return rt
}

// tableDiff names the first entry where two route tables differ — distance
// bits, predecessor peer or link — or returns "".
func tableDiff(got, want *routeTable) string {
	for v := range want.dist {
		if math.Float64bits(got.dist[v]) != math.Float64bits(want.dist[v]) || got.prev[v] != want.prev[v] {
			return fmt.Sprintf("peer %d: (dist %v, prev %d, link %d), want (%v, %d, %d)",
				v, got.dist[v], got.prev[v].peer, got.prev[v].link, want.dist[v], want.prev[v].peer, want.prev[v].link)
		}
	}
	return ""
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

// buildBoth replays one deterministic edge script into both representations:
// the legacy graph link by link, the CSR from the script's edge list.
// Duplicate and self-loop attempts are part of the script on purpose: the
// dedup behavior must match too.
func buildBoth(rng *rand.Rand, n, attempts int, script edgeScript) (*Graph, *legacyGraph) {
	var edges []ipLink
	lg := newLegacyGraph(n)
	add := func(u, v int, l float64) {
		edges = append(edges, ipLink{int32(u), int32(v), l})
		lg.addEdge(u, v, l)
	}
	if script.backbone {
		// Chain so most of the graph is connected (a random chain first).
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			add(perm[i-1], perm[i], script.weight(rng))
		}
	}
	for i := 0; i < attempts; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		add(u, v, script.weight(rng))
	}
	return newGraph(n, edges), lg
}

// negZero is the weight family a bypass could fold wrong: −0 links, which
// newGraph accepts, mixed with friendly ones. A leg of −0 must vanish from
// every sum as the direct half-edges' +0 does.
var negZero = edgeScript{"neg-zero", oneOf(constant(math.Copysign(0, -1)), friendly.weight), true}

// relayScripts are the weight families buildSparse's shape runs under: every
// adversarial one, then negZero.
var relayScripts = append(adversarialScripts[:len(adversarialScripts):len(adversarialScripts)], negZero)

// buildSparse replays the relay-heavy shape into both representations: the
// generator's preferential attachment at m = 2 — a triangle, then each node
// linked to two distinct earlier ones drawn by degree — over all n nodes, or
// over each half for a script without a backbone, weighted by the script. A
// node no later one picks keeps degree 2 between two of degree 3 or more:
// a relay, which the dense chain-plus-random scripts almost never contain.
func buildSparse(rng *rand.Rand, n int, script edgeScript) (*Graph, *legacyGraph) {
	var edges []ipLink
	lg := newLegacyGraph(n)
	parts := [][2]int{{0, n}}
	if !script.backbone {
		parts = [][2]int{{0, n / 2}, {n / 2, n}}
	}
	for _, p := range parts {
		var targets []int
		for u := p[0]; u < p[1]; u++ {
			var picks []int
			if u-p[0] < 3 {
				for v := p[0]; v < u; v++ {
					picks = append(picks, v) // the triangle
				}
			} else {
				picks = pickPreferential(targets, 2, u, rng, nil)
			}
			for _, v := range picks {
				l := script.weight(rng)
				edges = append(edges, ipLink{int32(u), int32(v), l})
				lg.addEdge(u, v, l)
				targets = append(targets, u, v)
			}
		}
	}
	return newGraph(n, edges), lg
}

// diffAll requires Dijkstra from every node and PairDistances over all of
// them to return the heap oracle's distances to the bit.
func diffAll(t *testing.T, g *Graph, lg *legacyGraph) {
	t.Helper()
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	pd := g.PairDistances(all)
	for _, src := range all {
		got, want := g.Dijkstra(src), lg.dijkstra(src)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) || math.Float64bits(pd[src][v]) != math.Float64bits(want[v]) {
				t.Fatalf("%d → %d: Dijkstra %v, PairDistances %v, heap oracle %v", src, v, got[v], pd[src][v], want[v])
			}
		}
	}
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

	diffDistances(t, g, lg, rng)

	// Each CSR row must hold the legacy adjacency list in identical order:
	// insertion order is the contract the whole byte-identical claim rests on.
	for u := 0; u < g.N(); u++ {
		ge, le := neighbors(g, u), lg.adj[u]
		if g.Degree(u) != len(le) || len(ge) != len(le) {
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
		g, lg := newGraph(4, []ipLink{{1, 2, 3}}), newLegacyGraph(4)
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

// TestDiffRelayHeavy runs every relay family on buildSparse's shape, each
// graph bypassing at least 30 % of its nodes, and holds every distance from
// every source to the heap oracle: redirected half-edges, their legs and the
// relays' own distances included.
func TestDiffRelayHeavy(t *testing.T) {
	for _, script := range relayScripts {
		t.Run(script.name, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g, lg := buildSparse(rng, 50+rng.Intn(200), script)
				if r := len(relays(g)); r*10 < 3*g.N() {
					t.Fatalf("seed %d: %d relays of %d nodes, want at least 30 %%", seed, r, g.N())
				}
				diffAll(t, g, lg)
			}
		})
	}
}

// relays lists the nodes g's bypass view steps over, in id order.
func relays(g *Graph) []int {
	var out []int
	for x, is := range g.bypass().relay {
		if is {
			out = append(out, x)
		}
	}
	return out
}

// TestDiffRelayCases holds hand-built shapes to the heap oracle from every
// source and pins which nodes the relay rule takes: one between two hubs,
// as source and target alike; two between one pair of hubs that a direct
// link also joins; one beside a degree-1 node; and a degree-2 chain and a
// degree-2 triangle, where a relay would neighbor one and none is taken.
func TestDiffRelayCases(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		links  []ipLink
		relays []int
	}{
		{"between hubs", 7, []ipLink{{0, 2, 2.5}, {2, 1, 7.25}, {0, 3, 1}, {0, 4, 3}, {1, 5, 2}, {1, 6, 0}}, []int{2}},
		{"two relays and a direct link", 4, []ipLink{{0, 2, 1}, {2, 1, 1.5}, {0, 1, 5}, {0, 3, 3}, {3, 1, 0.5}}, []int{2, 3}},
		{"beside a degree-1 node", 5, []ipLink{{0, 1, 4}, {1, 2, 1e-300}, {2, 3, 2}, {2, 4, 6}, {3, 4, 1}}, []int{1}},
		{"degree-2 chain", 9, []ipLink{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}, {0, 5, 5}, {0, 6, 6}, {4, 7, 7}, {4, 8, 8}}, nil},
		{"degree-2 triangle", 4, []ipLink{{0, 1, 1}, {1, 2, math.Copysign(0, -1)}, {2, 0, 3}}, nil},
	} {
		lg := newLegacyGraph(c.n)
		for _, l := range c.links {
			lg.addEdge(int(l.u), int(l.v), l.lat)
		}
		g := newGraph(c.n, c.links)
		if got := relays(g); fmt.Sprint(got) != fmt.Sprint(c.relays) {
			t.Fatalf("%s: relays %v, want %v", c.name, got, c.relays)
		}
		diffAll(t, g, lg)
	}
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
		{"paper bypass, two legs", 2.0001, 59.9998, 32},
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
// representation edge-for-edge (row by CSR row, which preserves insertion
// order within each node but not globally) and checks the order-insensitive
// agreements; the order-sensitive ones are covered by buildBoth scripts.
func TestDiffGeneratedGraphs(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := GeneratePowerLaw(150+int(seed)*50, 2, 2, 30, rng)
		lg := newLegacyGraph(g.N())
		for u := 0; u < g.N(); u++ {
			for _, e := range neighbors(g, u) {
				lg.addEdge(u, e.To, e.Latency)
			}
		}
		if lg.m != g.M() {
			t.Fatalf("seed %d: replay lost edges: %d vs %d", seed, lg.m, g.M())
		}
		for u := 0; u < g.N(); u++ {
			if g.Degree(u) != len(lg.adj[u]) {
				t.Fatalf("seed %d node %d: CSR degree %d, legacy %d", seed, u, g.Degree(u), len(lg.adj[u]))
			}
		}
		// Distances do not depend on relaxation order (see Graph.sweep), so
		// the replay is an oracle for them too — on the paper's own weights.
		diffDistances(t, g, lg, rng)
	}
}

// TestDiffRoutePaths: every route table the link-CSR sweep builds — distance
// bits, predecessor peers and links, from which Route, PathCost and the
// bandwidth calls walk — must be the heap reference's, on meshes from sparse
// (degree 1, several components) to dense, for every source of the ten world
// shapes the repo builds (meshWorlds) at seeds 1–3, and for 50 sources of the
// scale workload's 300,000-node/30,000-peer world. The tie rule has to
// reproduce the heap's predecessor wherever distance decides it, and on these
// worlds distance always does.
func TestDiffRoutePaths(t *testing.T) {
	check := func(name string, o *Overlay, sources []int) {
		t.Helper()
		for _, a := range sources {
			want := legacyTable(o, a)
			if d := tableDiff(sourceTable(o, a), &want); d != "" {
				t.Fatalf("%s source %d: sweep %s", name, a, d)
			}
		}
	}
	every := func(o *Overlay) []int {
		s := make([]int, o.N())
		for i := range s {
			s[i] = i
		}
		return s
	}
	// A diamond whose one bucket holds peers 2 (at 1.5) and 1 (at 1), queued
	// in that order: 2 reaches 3 first, at 1.5+2, and 1 then ties it from a
	// smaller distance, 1+2.5, so the sweep must replace 3's predecessor to
	// keep the one the heap settles first.
	diamond := &Overlay{peerIP: make([]int, 4), adj: make([][]int, 4), routeCap: 4}
	for _, l := range []overlayLink{{u: 0, v: 2, latency: 1.5}, {u: 0, v: 1, latency: 1}, {u: 2, v: 3, latency: 2}, {u: 1, v: 3, latency: 2.5}} {
		diamond.adj[l.u] = append(diamond.adj[l.u], len(diamond.links))
		diamond.adj[l.v] = append(diamond.adj[l.v], len(diamond.links))
		diamond.links = append(diamond.links, l)
	}
	check("diamond", diamond, every(diamond))
	for _, degree := range []int{1, 3, 6} {
		rng := rand.New(rand.NewSource(42))
		g := GeneratePowerLaw(400, 2, 2, 30, rng)
		o := BuildOverlay(g, OverlayConfig{NumPeers: 60, Degree: degree}, rng)
		check(fmt.Sprintf("400/60 degree %d", degree), o, every(o))
	}
	for _, w := range meshWorlds {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := GeneratePowerLaw(w.ipNodes, 2, 2, 30, rng)
			o := BuildOverlay(g, OverlayConfig{NumPeers: w.peers, Degree: 4, CapMin: 2000, CapMax: 10000, Compact: true}, rng)
			check(fmt.Sprintf("%d/%d seed %d", w.ipNodes, w.peers, seed), o, every(o))
		}
	}
	if testing.Short() {
		t.Skip("300k-node world skipped in -short")
	}
	rng := rand.New(rand.NewSource(1))
	g := GeneratePowerLaw(300_000, 2, 2, 30, rng)
	o := BuildOverlay(g, OverlayConfig{NumPeers: 30_000, Degree: 4, CapMin: 2000, CapMax: 10000, Compact: true}, rng)
	check("300000/30000", o, rng.Perm(o.N())[:50])
}

// diffOverlayTables builds an overlay on g at route-cache bounds 1, 2 and ∞
// and holds every source's table to the heap reference where adversarial
// weights leave room for ties: every latency is the heap's to the bit, every
// predecessor is tight (its link joins it to the node and dist[prev] +
// latency == dist[node]) and at the heap's predecessor's distance, every
// chain is acyclic and ends at the source, and the bounds' tables — paused
// and resumed, answering a query stream at K=2 — are identical to one
// uninterrupted sweep's. Which of two tight predecessors at one distance a
// node keeps is the tie rule's choice, not the heap's.
func diffOverlayTables(t *testing.T, g *Graph, seed int64) {
	t.Helper()
	n := 1 + g.N()/2
	build := func(k int) *Overlay {
		rng := rand.New(rand.NewSource(seed))
		return BuildOverlay(g, OverlayConfig{NumPeers: n, Degree: 1 + rng.Intn(4), RouteCacheSize: k, Compact: true}, rng)
	}
	one, all := build(1), build(n)
	replayQueries(t, "K=2", build(2), rand.New(rand.NewSource(seed)), 4*n)
	for a := 0; a < n; a++ {
		got, want := sourceTable(one, a), legacyTable(one, a)
		if d := tableDiff(got, sourceTable(all, a)); d != "" {
			t.Fatalf("source %d: K=1 %s at K=∞", a, d)
		}
		if d := tableDiff(got, oneSweep(one, a)); d != "" {
			t.Fatalf("source %d: resumed %s in one sweep", a, d)
		}
		for v, d := range got.dist {
			if math.Float64bits(d) != math.Float64bits(want.dist[v]) {
				t.Fatalf("source %d peer %d: sweep latency %v, heap %v", a, v, d, want.dist[v])
			}
			p, l := got.prev[v].peer, got.prev[v].link
			if v == a || math.IsInf(d, 1) {
				if p != -1 || l != -1 {
					t.Fatalf("source %d peer %d (dist %v): predecessor %d link %d, want none", a, v, d, p, l)
				}
				continue
			}
			if p < 0 || l < 0 {
				t.Fatalf("source %d peer %d: reachable without a predecessor", a, v)
			}
			lk := one.links[l]
			if !(lk.u == v && lk.v == int(p) || lk.u == int(p) && lk.v == v) || got.dist[p]+lk.latency != d {
				t.Fatalf("source %d peer %d: predecessor %d over link %d (%d-%d @%v) is not tight at %v", a, v, p, l, lk.u, lk.v, lk.latency, d)
			}
			if hp := want.prev[v].peer; math.Float64bits(got.dist[p]) != math.Float64bits(want.dist[hp]) {
				t.Fatalf("source %d peer %d: predecessor %d at %v, the heap's %d at %v", a, v, p, got.dist[p], hp, want.dist[hp])
			}
			at := v
			for hops := 0; at != a; hops++ {
				if at < 0 || hops > n {
					t.Fatalf("source %d peer %d: predecessor chain does not end at the source", a, v)
				}
				at = int(got.prev[at].peer)
			}
		}
	}
}

// FuzzDiffGraph drives the same differential through the fuzzer: arbitrary
// seeds generate edge scripts replayed into both representations — the
// friendly script, then the adversarial one the seed selects
// (testdata/fuzz/FuzzDiffGraph/adversarial-* hold one seed per script), on
// whose graph an overlay's route tables are then held to the heap too, and
// last buildSparse's relay-heavy shape under the relay family the seed
// selects (relay-* seeds land on −0 and on subnormal weights).
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
		diffOverlayTables(t, g, seed)
		g, lg = buildSparse(rng, n, relayScripts[uint64(seed)%uint64(len(relayScripts))])
		diffAll(t, g, lg)
	})
}
