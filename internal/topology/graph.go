// Package topology generates and routes over the two-level network used by
// the SpiderNet experiments: a power-law IP-layer graph (a stand-in for the
// Inet-3.0 generator the paper uses) and a P2P service overlay whose peers
// are a subset of the IP nodes.
//
// A Graph has two phases. During the mutable build phase edges accumulate in
// per-node adjacency lists with a hash-set dedup index. Freeze packs them
// into a compressed-sparse-row (CSR) form — one offsets array plus flat
// edge-target and edge-weight arrays, int32 node ids — and releases the
// build-phase structures. All query paths (Dijkstra, PairDistances,
// IsConnected, DegreeHistogram, routing) consume the CSR arrays with zero
// per-node allocation, which is what lets a 100,000-node graph build and
// sweep inside a laptop-class memory budget.
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// Edge is one directed half of an undirected IP-layer link.
type Edge struct {
	To      int
	Latency float64 // one-way propagation delay in milliseconds
}

// Graph is an undirected IP-layer graph with latency-weighted links.
// An edge-set index keyed on the node pair makes AddEdge/HasEdge O(1)
// during the build phase; Freeze converts to the packed CSR form.
type Graph struct {
	n int
	m int // number of undirected edges

	// Build phase (released by Freeze).
	adj   [][]Edge
	edges map[uint64]struct{}

	// Frozen CSR: node u's incident half-edges are to[off[u]:off[u+1]]
	// with weights w at the same indices, packed in insertion order so
	// relaxation order — and therefore every float fold — is identical to
	// the adjacency-list representation.
	off []int32
	to  []int32
	w   []float64
}

// pairKey packs an unordered node pair into one map key. Node indices are
// bounded well below 2^32 (the 100k sweep is three decimal orders under it).
func pairKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// NewGraph returns an empty graph with n nodes and no links.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("topology: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]Edge, n), edges: make(map[uint64]struct{})}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Frozen reports whether the graph has been packed into CSR form.
func (g *Graph) Frozen() bool { return g.off != nil }

// AddEdge inserts an undirected link between u and v with the given latency.
// Self-loops and duplicate edges are ignored. Adding to a frozen graph
// panics: the CSR arrays are immutable by construction.
func (g *Graph) AddEdge(u, v int, latency float64) {
	if g.Frozen() {
		panic("topology: AddEdge on frozen graph")
	}
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

// Freeze packs the adjacency lists into the CSR arrays and releases the
// build-phase structures (per-node slices and the edge-set index). It is
// idempotent; query methods freeze lazily, and the generators freeze before
// returning so a generated graph starts life compact.
func (g *Graph) Freeze() {
	if g.Frozen() {
		return
	}
	g.off = make([]int32, g.n+1)
	for u, es := range g.adj {
		g.off[u+1] = g.off[u] + int32(len(es))
	}
	half := g.off[g.n]
	g.to = make([]int32, half)
	g.w = make([]float64, half)
	for u, es := range g.adj {
		base := g.off[u]
		for i, e := range es {
			g.to[base+int32(i)] = int32(e.To)
			g.w[base+int32(i)] = e.Latency
		}
	}
	g.adj = nil
	g.edges = nil
}

// HasEdge reports whether an undirected link between u and v exists. On a
// frozen graph this scans the shorter of the two CSR rows (degrees are tiny
// in every generated topology).
func (g *Graph) HasEdge(u, v int) bool {
	if !g.Frozen() {
		_, ok := g.edges[pairKey(u, v)]
		return ok
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	for i, end := g.off[u], g.off[u+1]; i < end; i++ {
		if int(g.to[i]) == v {
			return true
		}
	}
	return false
}

// Degree returns the number of links incident to u.
func (g *Graph) Degree(u int) int {
	if g.Frozen() {
		return int(g.off[u+1] - g.off[u])
	}
	return len(g.adj[u])
}

// Neighbors returns the adjacency list of u. On an unfrozen graph the
// returned slice aliases internal state and must not be modified; on a
// frozen graph it is materialized from the CSR row (diagnostic/test use —
// hot paths iterate the CSR arrays directly).
func (g *Graph) Neighbors(u int) []Edge {
	if !g.Frozen() {
		return g.adj[u]
	}
	start, end := g.off[u], g.off[u+1]
	out := make([]Edge, 0, end-start)
	for i := start; i < end; i++ {
		out = append(out, Edge{To: int(g.to[i]), Latency: g.w[i]})
	}
	return out
}

// Dijkstra computes single-source shortest-path latencies from src.
// Unreachable nodes get +Inf.
func (g *Graph) Dijkstra(src int) []float64 {
	dist := make([]float64, g.n)
	var h nodeHeap
	g.dijkstraInto(src, dist, &h)
	return dist
}

// dijkstraInto runs Dijkstra from src into dist (len g.n), reusing h's
// backing arrays. The indexed heap supports decrease-key, so the queue never
// holds stale duplicates: exactly one pop per reachable node. The scan is a
// straight walk of the CSR arrays — no per-node allocation, no pointer
// chasing through per-node slices — which is what makes the overlay's
// ten-thousand-source batch fast.
func (g *Graph) dijkstraInto(src int, dist []float64, h *nodeHeap) {
	g.Freeze()
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h.init(g.n)
	h.update(dist, int32(src))
	for len(h.nodes) > 0 {
		u := h.pop(dist)
		du := dist[u]
		for i, end := g.off[u], g.off[u+1]; i < end; i++ {
			v := g.to[i]
			if nd := du + g.w[i]; nd < dist[v] {
				dist[v] = nd
				h.update(dist, v)
			}
		}
	}
}

// PairDistances computes the shortest-path latency between every pair of the
// given nodes: one Dijkstra per source, fanned over GOMAXPROCS workers. Row i
// holds the distances from nodes[i] to every nodes[j]. This is the overlay
// builder's peer-latency pass and, at the paper's scale (1,000 peers over
// 10,000 IP nodes), nearly all of a cluster build. Each worker owns a dist
// vector and a heap, reused across its sources, reads the frozen graph, and
// writes only the rows of its own sources; a row depends on nothing but its
// source, so the matrix is the same at any worker count.
func (g *Graph) PairDistances(nodes []int) [][]float64 {
	g.Freeze()
	out := make([][]float64, len(nodes))
	workers := min(runtime.GOMAXPROCS(0), len(nodes))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dist := make([]float64, g.n)
			var h nodeHeap
			for i := w; i < len(nodes); i += workers {
				g.dijkstraInto(nodes[i], dist, &h)
				row := make([]float64, len(nodes))
				for j, dst := range nodes {
					row[j] = dist[dst]
				}
				out[i] = row
			}
		}(w)
	}
	wg.Wait()
	return out
}

// settledPeer is one (node, distance) pair produced by NearestPeers.
type settledPeer struct {
	node int32
	dist float64
}

// truncState holds the reusable buffers of the truncated Dijkstra. The dist
// and pos arrays are initialized once and restored after every search by
// walking the touched list, so a search over a small ball costs O(ball), not
// O(n) — the difference between 10,000 cheap searches and 10,000 full-array
// resets on a 100,000-node graph.
type truncState struct {
	dist    []float64
	pos     []int32
	nodes   []int32
	touched []int32
	out     []settledPeer
}

func (s *truncState) init(n int) {
	if len(s.dist) != n {
		s.dist = make([]float64, n)
		s.pos = make([]int32, n)
		for i := range s.dist {
			s.dist[i] = math.Inf(1)
			s.pos[i] = -1
		}
	}
	s.nodes = s.nodes[:0]
	s.out = s.out[:0]
}

// nearestPeers runs Dijkstra from src until k nodes for which isPeer returns
// true (excluding src itself) have been settled, and appends them in settle
// order — ascending distance — to s.out. Settle order is the k-nearest-peer
// set: Dijkstra pops nodes in nondecreasing distance. The search touches
// only the ball around src, and s's buffers are restored before returning.
func (g *Graph) nearestPeers(src int, isPeer func(int32) bool, k int, s *truncState) []settledPeer {
	g.Freeze()
	s.init(g.n)
	h := nodeHeap{nodes: s.nodes, pos: s.pos}
	s.dist[src] = 0
	s.touched = append(s.touched[:0], int32(src))
	h.update(s.dist, int32(src))
	for len(h.nodes) > 0 && len(s.out) < k {
		u := h.pop(s.dist)
		if int(u) != src && isPeer(u) {
			s.out = append(s.out, settledPeer{node: u, dist: s.dist[u]})
			if len(s.out) == k {
				break
			}
		}
		du := s.dist[u]
		for i, end := g.off[u], g.off[u+1]; i < end; i++ {
			v := g.to[i]
			if nd := du + g.w[i]; nd < s.dist[v] {
				if math.IsInf(s.dist[v], 1) {
					s.touched = append(s.touched, v)
				}
				s.dist[v] = nd
				h.update(s.dist, v)
			}
		}
	}
	// Restore the touched entries (including any still sitting in the heap).
	for _, v := range s.touched {
		s.dist[v] = math.Inf(1)
		s.pos[v] = -1
	}
	s.nodes = h.nodes[:0]
	return s.out
}

// nodeHeap is an indexed binary min-heap of graph nodes keyed by their
// current tentative distance. pos tracks each node's heap slot so a
// relaxation does an in-place decrease-key (sift-up) instead of pushing a
// stale duplicate — the queue is bounded by the node count and every node is
// popped at most once.
type nodeHeap struct {
	nodes []int32
	pos   []int32 // node -> heap slot, -1 when absent
}

func (h *nodeHeap) init(n int) {
	if cap(h.pos) < n {
		h.pos = make([]int32, n)
	}
	h.pos = h.pos[:n]
	for i := range h.pos {
		h.pos[i] = -1
	}
	h.nodes = h.nodes[:0]
}

// update inserts v or restores heap order after v's key decreased.
func (h *nodeHeap) update(dist []float64, v int32) {
	i := h.pos[v]
	if i < 0 {
		i = int32(len(h.nodes))
		h.nodes = append(h.nodes, v)
		h.pos[v] = i
	}
	for i > 0 {
		p := (i - 1) / 2
		if dist[h.nodes[p]] <= dist[h.nodes[i]] {
			break
		}
		h.swap(i, p)
		i = p
	}
}

// pop removes and returns the node with the smallest tentative distance.
func (h *nodeHeap) pop(dist []float64) int32 {
	top := h.nodes[0]
	h.pos[top] = -1
	n := len(h.nodes) - 1
	if n > 0 {
		h.nodes[0] = h.nodes[n]
		h.pos[h.nodes[0]] = 0
	}
	h.nodes = h.nodes[:n]
	i := int32(0)
	for {
		c := 2*i + 1
		if int(c) >= n {
			break
		}
		if int(c+1) < n && dist[h.nodes[c+1]] < dist[h.nodes[c]] {
			c++
		}
		if dist[h.nodes[i]] <= dist[h.nodes[c]] {
			break
		}
		h.swap(i, c)
		i = c
	}
	return top
}

func (h *nodeHeap) swap(i, j int32) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.pos[h.nodes[i]] = i
	h.pos[h.nodes[j]] = j
}

// IsConnected reports whether every node is reachable from node 0.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	g.Freeze()
	seen := make([]bool, g.n)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, end := g.off[u], g.off[u+1]; i < end; i++ {
			if v := g.to[i]; !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// DegreeCount is one row of a degree histogram: Count nodes have exactly
// Degree incident links.
type DegreeCount struct {
	Degree int
	Count  int
}

// DegreeHistogram returns the degree distribution sorted by ascending
// degree. The sorted slice replaces the map this used to return: map
// iteration order leaked into summaries and made them nondeterministic.
func (g *Graph) DegreeHistogram() []DegreeCount {
	counts := make(map[int]int)
	for u := 0; u < g.n; u++ {
		counts[g.Degree(u)]++
	}
	out := make([]DegreeCount, 0, len(counts))
	for d, c := range counts {
		out = append(out, DegreeCount{Degree: d, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Degree < out[j].Degree })
	return out
}

type distItem struct {
	node int
	dist float64
}

// distPQ is a concrete binary min-heap of distItems. It replaces
// container/heap, whose interface{}-typed Push boxes every item onto the
// garbage-collected heap — at one allocation per edge relaxation that
// dominated the topology construction profile.
type distPQ struct {
	items []distItem
}

func (pq *distPQ) len() int { return len(pq.items) }

func (pq *distPQ) reset() { pq.items = pq.items[:0] }

func (pq *distPQ) push(it distItem) {
	pq.items = append(pq.items, it)
	i := len(pq.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if pq.items[p].dist <= pq.items[i].dist {
			break
		}
		pq.items[p], pq.items[i] = pq.items[i], pq.items[p]
		i = p
	}
}

func (pq *distPQ) pop() distItem {
	top := pq.items[0]
	n := len(pq.items) - 1
	pq.items[0] = pq.items[n]
	pq.items = pq.items[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && pq.items[c+1].dist < pq.items[c].dist {
			c++
		}
		if pq.items[i].dist <= pq.items[c].dist {
			break
		}
		pq.items[i], pq.items[c] = pq.items[c], pq.items[i]
		i = c
	}
	return top
}

// GeneratePowerLaw builds a connected power-law graph with n nodes using
// degree-based preferential attachment (Barabási–Albert), the same family of
// degree-driven generators as Inet-3.0. Each new node attaches m links to
// existing nodes chosen with probability proportional to their degree. Link
// latencies are sampled uniformly from [minLat, maxLat) milliseconds. The
// returned graph is frozen.
func GeneratePowerLaw(n, m int, minLat, maxLat float64, rng *rand.Rand) *Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	g := NewGraph(n)
	lat := func() float64 { return minLat + rng.Float64()*(maxLat-minLat) }

	// Seed clique of m+1 nodes keeps the graph connected from the start.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			g.AddEdge(u, v, lat())
		}
	}
	// targets holds one entry per edge endpoint, so uniform sampling from it
	// is degree-proportional sampling.
	targets := make([]int, 0, 2*(m*(m+1)/2+(n-m-1)*m))
	for u := 0; u <= m; u++ {
		for i := 0; i < g.Degree(u); i++ {
			targets = append(targets, u)
		}
	}
	scratch := make([]int, 0, m)
	for u := m + 1; u < n; u++ {
		for _, v := range pickPreferential(targets, m, u, rng, scratch) {
			g.AddEdge(u, v, lat())
			targets = append(targets, u, v)
		}
	}
	g.Freeze()
	return g
}

// pickPreferential samples m distinct nodes (none equal to exclude) from
// targets, where each node appears once per incident edge endpoint, so the
// draw is degree-proportional. The result order is the draw order, keeping
// generation deterministic for a given rand stream. Rejection sampling is
// bounded: once the miss budget is spent (a targets multiset saturated by
// the excluded node or already-chosen entries would otherwise spin forever)
// the remainder is filled by a deterministic scan. The returned slice aliases
// scratch when provided.
func pickPreferential(targets []int, m, exclude int, rng *rand.Rand, scratch []int) []int {
	chosen := scratch[:0]
	if chosen == nil {
		chosen = make([]int, 0, m)
	}
	picked := func(v int) bool {
		for _, c := range chosen {
			if c == v {
				return true
			}
		}
		return false
	}
	// Generous miss budget: outside degenerate inputs the loop behaves
	// exactly like unbounded rejection sampling, so the RNG stream — and
	// with it every generated topology — is unchanged in practice.
	misses, missBudget := 0, 16*len(targets)+64
	for len(chosen) < m && misses < missBudget {
		v := targets[rng.Intn(len(targets))]
		if v != exclude && !picked(v) {
			chosen = append(chosen, v)
		} else {
			misses++
		}
	}
	for _, v := range targets { // fallback scan; usually already satisfied
		if len(chosen) >= m {
			break
		}
		if v != exclude && !picked(v) {
			chosen = append(chosen, v)
		}
	}
	return chosen
}

// GenerateRandom builds a connected Erdős–Rényi-style graph with n nodes and
// roughly avgDegree links per node. A random chain is inserted first to
// guarantee connectivity. The returned graph is frozen.
func GenerateRandom(n, avgDegree int, minLat, maxLat float64, rng *rand.Rand) *Graph {
	g := NewGraph(n)
	lat := func() float64 { return minLat + rng.Float64()*(maxLat-minLat) }
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i-1], perm[i], lat())
	}
	extra := n*avgDegree/2 - (n - 1)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		g.AddEdge(u, v, lat())
	}
	g.Freeze()
	return g
}
