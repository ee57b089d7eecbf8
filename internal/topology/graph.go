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

	// Bucket plan of the shortest-path sweep, fixed by Freeze from the
	// smallest positive and the largest edge weight: a distance d belongs to
	// bucket int(d*bucketInv), and ringLen (a power of two) buckets are live
	// at any time. See sweep.
	bucketInv float64
	ringLen   int
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

// AddEdge inserts an undirected link between u and v with the given latency,
// which must be finite and >= 0: the shortest-path searches are label-setting
// and compare with <, so a negative weight or a NaN would make them silently
// wrong. Self-loops and duplicate edges are ignored. Adding to a frozen graph
// or adding a weight outside that range panics: the CSR arrays are immutable
// by construction, and a bad weight is a caller bug.
func (g *Graph) AddEdge(u, v int, latency float64) {
	if g.Frozen() {
		panic("topology: AddEdge on frozen graph")
	}
	if !(latency >= 0) || math.IsInf(latency, 1) {
		panic(fmt.Sprintf("topology: AddEdge latency %v is not finite and >= 0", latency))
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

// Freeze packs the adjacency lists into the CSR arrays, fixes the bucket plan
// of the shortest-path sweep from the edge weights, and releases the
// build-phase structures (per-node slices and the edge-set index). It is
// idempotent; query methods freeze lazily — before they start any worker, so
// the searches themselves only read — and the generators freeze before
// returning so a generated graph starts life compact.
func (g *Graph) Freeze() {
	if g.Frozen() {
		return
	}
	minPos, maxW := math.Inf(1), 0.0
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
			if e.Latency > 0 && e.Latency < minPos {
				minPos = e.Latency
			}
			maxW = max(maxW, e.Latency)
		}
	}
	g.bucketInv, g.ringLen = bucketPlan(minPos, maxW)
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

// maxBucketsPerEdge floors the bucket width at maxW/maxBucketsPerEdge, so a
// graph mixing nanosecond and second links asks for a ring of a couple of
// thousand buckets, not a billion; edges lighter than the floor are handled by
// re-reading the bucket being drained (see sweep).
const maxBucketsPerEdge = 1024

// bucketPlan turns the smallest positive and the largest edge weight into the
// sweep's bucket scale (the reciprocal of the bucket width δ) and ring length.
// δ is the smallest positive weight, floored at maxW/maxBucketsPerEdge. A node
// scanned from bucket k sits below (k+1)δ and an edge adds at most maxW, so a
// relaxation lands at most ⌊maxW/δ⌋+1 buckets ahead, +1 more because fl(d+w)
// may round up across a boundary: ⌊maxW/δ⌋+3 slots keep every live entry in
// its own bucket, rounded up to a power of two so the ring index is a mask.
// A graph with no positive weight passes minPos=+Inf and gets scale 0: one
// bucket holds every distance. The plan sets how much work a sweep does,
// never its result (see sweep).
func bucketPlan(minPos, maxW float64) (inv float64, ringLen int) {
	inv = 1 / max(minPos, maxW/maxBucketsPerEdge)
	if math.IsInf(inv, 1) { // all weights subnormal: any finite scale is correct
		inv = math.MaxFloat64
	}
	ringLen = 1
	for ringLen < int(maxW*inv)+3 {
		ringLen <<= 1
	}
	return inv, ringLen
}

// sweepState is one worker's reusable state for sweep: allocated once, shared
// by all of that worker's sources.
type sweepState struct {
	dist []float64
	slot []int32   // node -> ring slot holding its live entry, -1 when none
	ring [][]int32 // ring[k]: nodes whose tentative distance fell in a bucket ≡ k
}

func (g *Graph) newSweepState() *sweepState {
	s := &sweepState{dist: make([]float64, g.n), slot: make([]int32, g.n), ring: make([][]int32, g.ringLen)}
	for i := range s.slot {
		s.slot[i] = -1
	}
	return s
}

// sweep fills s.dist with the shortest-path latency from src to every node
// (+Inf where unreachable) by a bucket sweep — Dial's algorithm on float keys —
// instead of a priority queue. Every improving relaxation gives the node a
// live entry in the bucket of its new distance (slot dedups: one live entry
// per node, older ones are skipped as stale); buckets are drained in
// increasing order until no live entry is left.
//
// Buckets are as wide as the smallest positive edge weight, so relaxing out
// of the bucket being drained lands in a later one and a node is final when
// its bucket is reached: label-setting across buckets, no ordering needed
// inside one, each node scanned once. The exceptions — zero-weight edges,
// edges under the maxBucketsPerEdge floor, a sum rounded down onto the
// boundary — land in the current bucket, which is why the drain loop reads
// the bucket again once it runs out: inside a bucket the sweep is
// label-correcting.
//
// Correctness needs none of that. A node is only ever scanned at its current
// distance and every improvement makes its entry live again, so the loop
// stops exactly when no edge improves anything; bucket width and ring length
// decide how many scans are wasted, not what is computed. And the distances
// are the ones a heap Dijkstra computes, to the bit: fl(d+w) is monotone in d,
// so there is exactly one dist with dist[src]=0 and dist[v] = min over edges
// (u,v) of fl(dist[u]+w) — the smallest left-to-right float sum over all
// src→v paths — and every search that stops with no improving edge left has
// reached it, in whatever order it relaxed.
//
// The graph must be frozen; sweep only reads it, so workers may share it.
func (g *Graph) sweep(src int, s *sweepState) {
	dist, slot, ring := s.dist, s.slot, s.ring
	off, to, w, inv := g.off, g.to, g.w, g.bucketInv
	mask := len(ring) - 1
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for k := range ring {
		ring[k] = ring[k][:0] // stale entries the last source left behind
	}
	dist[src] = 0
	slot[src] = 0
	ring[0] = append(ring[0], int32(src))
	for cur, live := 0, 1; live > 0; cur++ {
		k := int32(cur & mask)
		for done := 0; done < len(ring[k]); {
			bucket := ring[k]
			for _, u := range bucket[done:] {
				if slot[u] != k {
					continue
				}
				slot[u] = -1
				live--
				du := dist[u]
				for e, end := off[u], off[u+1]; e < end; e++ {
					v := to[e]
					nd := du + w[e]
					if nd >= dist[v] {
						continue
					}
					dist[v] = nd
					if b := int32(int(nd*inv) & mask); slot[v] != b {
						if slot[v] < 0 {
							live++
						}
						slot[v] = b
						ring[b] = append(ring[b], v)
					}
				}
			}
			done = len(bucket)
		}
		ring[k] = ring[k][:0]
	}
}

// Dijkstra computes single-source shortest-path latencies from src.
// Unreachable nodes get +Inf. Edge weights are finite and >= 0 (AddEdge
// enforces it). The name is the contract — Dijkstra's distances — not the
// algorithm: see sweep.
func (g *Graph) Dijkstra(src int) []float64 {
	g.Freeze()
	s := g.newSweepState()
	g.sweep(src, s)
	return s.dist
}

// PairDistances computes the shortest-path latency between every pair of the
// given nodes: one sweep per source, fanned over GOMAXPROCS workers. Row i
// holds the distances from nodes[i] to every nodes[j]. This is the overlay
// builder's peer-latency pass and, at the paper's scale (1,000 peers over
// 10,000 IP nodes), most of a cluster build. Each worker owns one sweepState,
// reused across its sources, reads the frozen graph, and writes only the rows
// of its own sources; a row depends on nothing but its source, so the matrix
// is the same at any worker count. Edge weights are finite and >= 0 (AddEdge
// enforces it).
func (g *Graph) PairDistances(nodes []int) [][]float64 {
	g.Freeze()
	out := make([][]float64, len(nodes))
	fanOut(len(nodes), func() func(int) {
		s := g.newSweepState()
		return func(i int) {
			g.sweep(nodes[i], s)
			row := make([]float64, len(nodes))
			for j, dst := range nodes {
				row[j] = s.dist[dst]
			}
			out[i] = row
		}
	})
	return out
}

// fanOut runs items 0..n-1 over min(GOMAXPROCS, n) goroutines and returns
// when all are done: each goroutine calls newWorker once — that is where a
// worker allocates the scratch it reuses — and the returned func for items
// w, w+workers, w+2·workers, …. Items must be independent and write only
// their own results, which makes the outcome the same at any worker count.
func fanOut(n int, newWorker func() func(item int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			do := newWorker()
			for i := w; i < n; i += workers {
				do(i)
			}
		}(w)
	}
	wg.Wait()
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
// This is the one search that keeps the heap: it stops after a ball of a few
// dozen nodes, where a bucket ring has nothing to amortize. The graph must be
// frozen; the search only reads it, so workers with a truncState each may
// share it.
func (g *Graph) nearestPeers(src int, isPeer func(int32) bool, k int, s *truncState) []settledPeer {
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
