// Package topology generates and routes over the two-level network used by
// the SpiderNet experiments: a power-law IP-layer graph (a stand-in for the
// Inet-3.0 generator the paper uses) and a P2P service overlay whose peers
// are a subset of the IP nodes.
//
// A Graph is immutable and built in one step: newGraph packs an edge list
// straight into a compressed-sparse-row (CSR) form — one offsets array plus
// flat edge-target and edge-weight arrays, int32 node ids. All query paths
// (Dijkstra, PairDistances, the overlay's nearest-peer search) consume the CSR
// arrays with zero per-node allocation, which is what lets a 100,000-node
// graph build and sweep inside a laptop-class memory budget. The overlay's
// links pack into the same CSR form, and every search that runs to
// completion, on either layer, is the one bucket sweep (csr.sweep) over it
// or, on the IP layer, over a view that steps over relay nodes (bypass).
package topology

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/par"
)

// ipLink is one undirected IP-layer link of an edge list: its endpoints and
// its one-way propagation delay in milliseconds.
type ipLink struct {
	u, v int32
	lat  float64
}

// Graph is an undirected IP-layer graph with latency-weighted links, packed
// by newGraph. Its full sweeps run on bypass views: its csr has no plan.
type Graph struct {
	n int
	m int // number of undirected edges
	csr

	// byW lists node u's half-edge indices in ascending weight, equal
	// weights in row order, at byW[off[u]:off[u+1]]: the order nearestPeers
	// reads a node's links in. The CSR itself keeps edge order, which the
	// full sweeps read with better locality.
	byW []int32
}

// csr is a packed weighted adjacency: node u's incident half-edges are
// to[off[u]:off[u+1]] with weights w — and, on an overlay, link indices link;
// on a bypass view, second legs leg — at the same indices, packed in
// insertion order so relaxation order, and therefore every float fold, is
// that of an adjacency list appended to edge by edge.
type csr struct {
	off  []int32
	to   []int32
	w    []float64
	link []int32   // overlay link index of each half-edge; nil on the IP graph
	leg  []float64 // bypass view only: weight added after w (see bypass)

	// Bucket plan of the shortest-path sweep, fixed by plan from the
	// smallest positive and the largest edge weight: a distance d belongs to
	// bucket int(d*bucketInv), and ringLen (a power of two) buckets are live
	// at any time. See sweep.
	bucketInv float64
	ringLen   int
}

// plan fixes the sweep's bucket plan from the packed weights, w+leg on a
// bypass view.
func (c *csr) plan() {
	minPos, maxW := math.Inf(1), 0.0
	for e, w := range c.w {
		if c.leg != nil {
			w += c.leg[e]
		}
		if w > 0 && w < minPos {
			minPos = w
		}
		maxW = max(maxW, w)
	}
	c.bucketInv, c.ringLen = bucketPlan(minPos, maxW)
}

// newGraph packs n nodes and the undirected links of edges into a Graph in
// edge order: node u's half-edges keep the order of the links naming u.
// Latencies must be finite and >= 0 — the label-setting searches compare
// with <, so a negative weight or a NaN would make them silently wrong — and
// a bad one panics. Self-loops are dropped, and so is every link repeating a
// pair an earlier one joined: the first weight wins.
func newGraph(n int, edges []ipLink) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("topology: negative node count %d", n))
	}
	g := &Graph{n: n}
	// Count each node's half-edges into off[u+2], sum, then place each link's
	// halves at off[u+1], which advances to the end of u's row.
	off := make([]int32, n+2)
	for _, e := range edges {
		if !(e.lat >= 0) || math.IsInf(e.lat, 1) {
			panic(fmt.Sprintf("topology: link latency %v is not finite and >= 0", e.lat))
		}
		if e.u != e.v {
			off[e.u+2]++
			off[e.v+2]++
		}
	}
	for u := 2; u < len(off); u++ {
		off[u] += off[u-1]
	}
	to, w := make([]int32, off[n+1]), make([]float64, off[n+1])
	for _, e := range edges {
		if e.u != e.v {
			to[off[e.u+1]], w[off[e.u+1]] = e.v, e.lat
			to[off[e.v+1]], w[off[e.v+1]] = e.u, e.lat
			off[e.u+1]++
			off[e.v+1]++
		}
	}
	// A row lists a neighbor twice only for a repeated pair, and its first
	// listing is the first link's, in both endpoints' rows: keeping each
	// row's first listing keeps both halves of exactly the first link.
	seen := make([]int32, n) // seen[v] == u+1: row u already lists v
	kept := int32(0)
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		off[u] = kept
		for e := lo; e < hi; e++ {
			if v := to[e]; seen[v] != int32(u)+1 {
				seen[v] = int32(u) + 1
				to[kept], w[kept] = v, w[e]
				kept++
			}
		}
	}
	off[n] = kept
	g.m = int(kept) / 2
	g.off, g.to, g.w = off[:n+1], to[:kept], w[:kept]
	g.byW = make([]int32, kept)
	for e := range g.byW {
		g.byW[e] = int32(e)
	}
	for u := 0; u < n; u++ {
		slices.SortStableFunc(g.byW[off[u]:off[u+1]], func(a, b int32) int { return cmp.Compare(w[a], w[b]) })
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the number of links incident to u.
func (g *Graph) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

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

// sweepState is one worker's reusable scratch for sweep: allocated once, its
// buckets grown to their working size by the first sources, and shared by all
// of that worker's sources. A sweep leaves every slot at -1.
type sweepState struct {
	slot []int32   // node -> ring slot holding its live entry, -1 when none
	ring [][]int32 // ring[k]: nodes whose tentative distance fell in a bucket ≡ k
}

func (c *csr) newSweepState() sweepState {
	s := sweepState{slot: make([]int32, len(c.off)-1), ring: make([][]int32, c.ringLen)}
	for i := range s.slot {
		s.slot[i] = -1
	}
	return s
}

// sweep fills rt.dist with the shortest-path latency from src to every node
// (+Inf where unreachable) by a bucket sweep — Dial's algorithm on float keys —
// instead of a priority queue. Every improving relaxation gives the node a
// live entry in the bucket of its new distance (slot dedups: one live entry
// per node, older ones are skipped as stale); buckets are drained in
// increasing order until no live entry is left. When rt.prevPeer is non-nil
// the sweep also records each node's predecessor, peer and link (-1 at src
// and where unreachable), which needs c.link.
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
// Predecessors follow one tie rule: a node keeps the first predecessor that
// reached its final distance, except that a tight one (dist[u]+w == dist[v])
// at a strictly smaller distance replaces it. A heap Dijkstra keeps the first
// tight predecessor it settles, and it settles smaller distances first, so the
// two pick the same one wherever distance decides; diff_test.go holds every
// route table of the repo's world shapes to the heap's. The rule also keeps
// every chain acyclic on zero-weight links: a predecessor at the same
// distance reached it strictly earlier.
//
// The distance-only loop adds leg[e] after w[e]: it runs on bypass views.
//
// sweep only reads c, so workers may share it.
func (c *csr) sweep(src int, rt *routeTable, s *sweepState) {
	dist, slot, ring := rt.dist, s.slot, s.ring
	off, to, w, leg, inv := c.off, c.to, c.w, c.leg, c.bucketInv
	rec := rt.prevPeer != nil
	mask := len(ring) - 1
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for i := range rt.prevPeer {
		rt.prevPeer[i], rt.prevLink[i] = -1, -1
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
				du, lo, hi := dist[u], off[u], off[u+1]
				// rec is tested once per scanned node: tested per edge, it
				// costs the IP layer's distance-only sweeps ~5 %.
				if rec {
					for e := lo; e < hi; e++ {
						v, nd := to[e], du+w[e]
						if nd > dist[v] {
							continue
						}
						if nd == dist[v] {
							if p := rt.prevPeer[v]; p >= 0 && du < dist[p] {
								rt.prevPeer[v], rt.prevLink[v] = u, c.link[e]
							}
							continue
						}
						dist[v] = nd
						rt.prevPeer[v], rt.prevLink[v] = u, c.link[e]
						if b := int32(int(nd*inv) & mask); slot[v] != b {
							if slot[v] < 0 {
								live++
							}
							slot[v] = b
							ring[b] = append(ring[b], v)
						}
					}
					continue
				}
				for e := lo; e < hi; e++ {
					v, nd := to[e], du+w[e]+leg[e]
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

// bypassView is the graph every IP-layer sweep runs on: g's rows with each
// half-edge u→x into a relay x — degree 2, two different neighbors, neither
// of degree 2, so no relay neighbors another — redirected to x's other
// neighbor y with leg w(x,y), so a sweep folds fl(fl(du+w)+w') exactly as
// the path through x does; a direct half-edge's leg is +0, and fl(s+0) == s
// for s >= 0. Only walks u→x→u drop out, which never shorten a path (fl is
// monotone). No half-edge reaches a relay, so a sweep scans the other nodes
// only; at gives a relay its distance from its intact row.
type bypassView struct {
	csr
	relay []bool
}

// bypass builds g's view in O(n+m): it shares off and w, copies to, and
// plans its buckets on w+leg. It is built per call, never stored on g, so a
// graph no full sweep reads pays nothing for it.
func (g *Graph) bypass() *bypassView {
	v := &bypassView{csr: csr{off: g.off, to: slices.Clone(g.to), w: g.w, leg: make([]float64, len(g.to))}, relay: make([]bool, g.n)}
	for x := range v.relay {
		e := g.off[x]
		v.relay[x] = g.Degree(x) == 2 && g.to[e] != g.to[e+1] && g.Degree(int(g.to[e])) != 2 && g.Degree(int(g.to[e+1])) != 2
	}
	for u := range v.relay {
		for e := g.off[u]; e < g.off[u+1]; e++ {
			if x := g.to[e]; v.relay[x] {
				f := g.off[x]
				if g.to[f] == int32(u) {
					f++
				}
				v.to[e], v.leg[e] = g.to[f], g.w[f]
			}
		}
	}
	v.plan()
	return v
}

// at returns the distance to t from a sweep of v from src: dist[t], or, for
// a relay t other than src, the fixpoint equation at t over its own two
// links, whose far ends are no relays and so hold their final distances.
func (v *bypassView) at(src, t int, dist []float64) float64 {
	if !v.relay[t] || t == src {
		return dist[t]
	}
	e := v.off[t]
	return min(dist[v.to[e]]+v.w[e], dist[v.to[e+1]]+v.w[e+1])
}

// Dijkstra computes single-source shortest-path latencies from src.
// Unreachable nodes get +Inf. Edge weights are finite and >= 0 (newGraph
// enforces it). The name is the contract — Dijkstra's distances — not the
// algorithm: see sweep and bypass.
func (g *Graph) Dijkstra(src int) []float64 {
	v := g.bypass()
	rt, s := routeTable{dist: make([]float64, g.n)}, v.newSweepState()
	v.sweep(src, &rt, &s)
	for t := range rt.dist {
		rt.dist[t] = v.at(src, t, rt.dist)
	}
	return rt.dist
}

// PairDistances computes the shortest-path latency between every pair of the
// given nodes: one sweep of the bypass view per source, fanned over
// GOMAXPROCS workers. Row i holds the distances from nodes[i] to every
// nodes[j]. This is the overlay builder's peer-latency pass and, at the
// paper's scale (1,000 peers over 10,000 IP nodes), most of a cluster build.
// Each worker owns one sweepState and distance vector, reused across its
// sources, reads the view, and writes only the rows of its own sources; a
// row depends on nothing but its source, so the matrix is the same at any
// worker count. Edge weights are finite and >= 0 (newGraph enforces it).
func (g *Graph) PairDistances(nodes []int) [][]float64 {
	v := g.bypass()
	out := make([][]float64, len(nodes))
	par.FanOut(len(nodes), func() func(int) {
		rt, s := routeTable{dist: make([]float64, g.n)}, v.newSweepState()
		return func(i int) {
			v.sweep(nodes[i], &rt, &s)
			row := make([]float64, len(nodes))
			for j, dst := range nodes {
				row[j] = v.at(nodes[i], dst, rt.dist)
			}
			out[i] = row
		}
	})
	return out
}

// settledPeer is one (peer, distance) pair produced by nearestPeers.
type settledPeer struct {
	peer int32
	dist float64
}

// truncState holds the reusable buffers of the truncated search. dist is
// initialized once and restored after every search by walking the touched
// list, so a search over a small ball costs O(ball), not O(n) — the
// difference between 10,000 cheap searches and 10,000 full-array resets on a
// 100,000-node graph.
type truncState struct {
	dist    []float64 // settled distance, +Inf until settled
	touched []int32   // settled nodes
	out     []settledPeer
	pq      distPQ
}

// nearestPeers runs Dijkstra from src until k peers other than src's own have
// settled — peerOf maps an IP node to the peer it hosts, -1 for none — and
// returns them in settle order, ascending distance: the k nearest peers. The
// search touches only the ball around src, and s's buffers are restored
// before returning. It is the one search here that runs on a heap: it stops
// after k peers in settle order, which a bucket sweep does not produce.
//
// The heap holds one entry per settled node u with links left to read, keyed
// by dist[u]+w of its lightest unread link (byW). Popping it settles the
// link's far end, if unsettled, and moves the entry to u's next link, whose
// key is no smaller: fl(d+w) is monotone in w. So keys pop in ascending order
// and every node settles at the smallest fl(dist[u]+w) over its settled
// neighbors, the distance any correct search reaches (see sweep), while a hub
// costs one heap entry, not one per link. The search only reads the graph,
// so workers with a truncState each may share it.
func (g *Graph) nearestPeers(src int, peerOf []int32, k int, s *truncState) []settledPeer {
	if len(s.dist) != g.n {
		s.dist = make([]float64, g.n)
		for i := range s.dist {
			s.dist[i] = math.Inf(1)
		}
	}
	s.out, s.touched = s.out[:0], s.touched[:0]
	s.pq.reset()
	settle := func(v int32, d float64) {
		s.dist[v] = d
		s.touched = append(s.touched, v)
		if lo := g.off[v]; lo < g.off[v+1] {
			s.pq.push(distItem{dist: d + g.w[g.byW[lo]], node: v, at: lo})
		}
	}
	settle(int32(src), 0)
	for s.pq.len() > 0 && len(s.out) < k {
		it := s.pq.items[0]
		if next := it.at + 1; next < g.off[it.node+1] {
			s.pq.replaceMin(distItem{dist: s.dist[it.node] + g.w[g.byW[next]], node: it.node, at: next})
		} else {
			s.pq.pop()
		}
		if v := g.to[g.byW[it.at]]; math.IsInf(s.dist[v], 1) {
			settle(v, it.dist)
			if p := peerOf[v]; p >= 0 {
				s.out = append(s.out, settledPeer{peer: p, dist: it.dist})
			}
		}
	}
	for _, v := range s.touched {
		s.dist[v] = math.Inf(1)
	}
	return s.out
}

// distItem is a heap entry: a key and the node it belongs to; in
// nearestPeers also the position in byW of the link the key reads.
type distItem struct {
	dist float64
	node int32
	at   int32
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
	pq.down()
	return top
}

// replaceMin replaces the minimum with it: one sift-down, not a pop and a push.
func (pq *distPQ) replaceMin(it distItem) {
	pq.items[0] = it
	pq.down()
}

// down sifts the root down to its place.
func (pq *distPQ) down() {
	n := len(pq.items)
	for i := 0; ; {
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
}

// GeneratePowerLaw builds a connected power-law graph with n nodes using
// degree-based preferential attachment (Barabási–Albert), the same family of
// degree-driven generators as Inet-3.0. Each new node attaches m links to
// distinct existing nodes chosen with probability proportional to their
// degree, so no link repeats a pair. Link latencies are sampled uniformly
// from [minLat, maxLat) milliseconds.
func GeneratePowerLaw(n, m int, minLat, maxLat float64, rng *rand.Rand) *Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	lat := func() float64 { return minLat + rng.Float64()*(maxLat-minLat) }
	edges := make([]ipLink, 0, m*(m+1)/2+(n-m-1)*m)
	// Seed clique of m+1 nodes keeps the graph connected from the start.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, ipLink{int32(u), int32(v), lat()})
		}
	}
	// targets holds one entry per edge endpoint, so uniform sampling from it
	// is degree-proportional sampling; each clique node has degree m.
	targets := make([]int, 0, 2*cap(edges))
	for u := 0; u <= m; u++ {
		for i := 0; i < m; i++ {
			targets = append(targets, u)
		}
	}
	scratch := make([]int, 0, m)
	for u := m + 1; u < n; u++ {
		for _, v := range pickPreferential(targets, m, u, rng, scratch) {
			edges = append(edges, ipLink{int32(u), int32(v), lat()})
			targets = append(targets, u, v)
		}
	}
	return newGraph(n, edges)
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
