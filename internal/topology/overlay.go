package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/par"
)

type overlayLink struct {
	u, v     int
	latency  float64 // ms, from IP-layer shortest path between u and v
	capacity float64 // kbps
}

// Path is an overlay-layer route between two peers: the peer sequence, the
// indices of the traversed overlay links, and the total latency.
type Path struct {
	Peers   []int
	Links   []int
	Latency float64
}

// Overlay is the P2P service overlay: a set of peers (each mapped to an IP
// node), overlay links with bandwidth capacities, and latency/routing
// oracles. Overlay links model the application-level connections data
// streams travel on; control messages between any two peers use the direct
// IP-layer latency (see Latency), which a compact overlay does not keep.
//
// The link set grows in per-peer lists (BuildOverlay, AddPeer); routing
// sweeps per-peer (neighbor, link, latency) arrays packed from them lazily on
// the first Route and invalidated by AddPeer.
type Overlay struct {
	peerIP []int
	lat    [][]float64 // pairwise peer latency over IP shortest paths; nil in compact mode
	links  []overlayLink
	avail  []float64 // per link: kbps still unallocated
	adj    [][]int   // per-peer incident link indices

	capMin, capMax float64 // link capacity range, for peers added later

	routeCap int     // most per-source tables the route cache holds
	r        *router // nil until the first route; AddPeer drops it
}

// router is what every route is computed with, built together on the first
// route and dropped together by AddPeer: the link CSR (peer p's
// incident links in adj insertion order, so routing relaxes in the order the
// slice-of-slices representation does), the one sweep scratch every table is
// computed in, and a bounded per-source route cache — an LRU of at most
// routeCap tables, so steady-state memory is O(routeCap·peers) no matter how
// many sources probe.
type router struct {
	csr
	sweepState
	slotOf     []*routeSlot // source peer -> its cached table, nil when none
	cached     int          // tables on the LRU list
	head, tail *routeSlot   // most recently used, next eviction victim
}

// routeTable is one source's shortest-path tree, 16 B per peer: the latency
// to every peer and the step each is reached through, {-1, -1} at the source
// and at unreachable peers. A table is settled only as far as its queries
// needed: frontier and cur hold its paused sweep (see settle), and the
// frontier is empty once the table is complete. The IP layer's sweeps want
// distances only and leave prev nil.
type routeTable struct {
	dist     []float64
	prev     []step
	frontier []int32 // live entries of the paused sweep, in ring order
	cur      int     // the bucket the paused sweep resumes at
}

// step is how a route reaches a peer: the peer before it and the link between.
type step struct{ peer, link int32 }

func newRouteTable(n int) routeTable {
	return routeTable{dist: make([]float64, n), prev: make([]step, n)}
}

// routeSlot is one LRU entry: a full per-source routing table threaded on the
// recency list.
type routeSlot struct {
	src        int
	rt         routeTable
	prev, next *routeSlot // prev = more recent
}

// routeCacheBudget is the memory the route cache may hold when
// OverlayConfig.RouteCacheSize is zero: as many 16 B/peer tables as fit in
// 32 MB — 2,097 at 1,000 peers, 69 at 30,000, 20 at 100,000. An entry count
// cannot be right at every scale; the traffic sets the one that matters: on
// the paper's §6.1 world (1,000 peers) BCP makes every peer a route source,
// and under a 512-table bound one steady benchmark round sweeps 9,600 tables
// for those 1,000 sources. With all of them resident (16 MB) it sweeps 1,000.
const routeCacheBudget = 32 << 20

// defaultRouteCap is the number of route tables routeCacheBudget holds.
func defaultRouteCap(peers int) int {
	return max(1, routeCacheBudget/(16*max(1, peers)))
}

// OverlayConfig controls BuildOverlay.
type OverlayConfig struct {
	NumPeers int
	Degree   int     // mesh links each peer opens: its k latency-nearest peers
	CapMin   float64 // overlay link capacity range, kbps
	CapMax   float64
	// Compact builds no O(peers²) pairwise latency matrix. The mesh is the
	// same; Latency and AddPeer, which read the matrix, panic. This is the
	// only mode that fits a 10,000-peer overlay in a laptop-class memory
	// budget.
	Compact bool
	// RouteCacheSize bounds how many per-source routing tables Route may
	// retain (LRU eviction beyond it). Zero or less bounds the cache by
	// memory instead: as many tables as fit routeCacheBudget. Routes
	// themselves are independent of the cache state, so any bound produces
	// byte-identical results — only memory and recomputation change.
	RouteCacheSize int
}

// BuildOverlay selects cfg.NumPeers distinct IP nodes from g as peers, links
// each peer to its cfg.Degree latency-nearest peers over IP shortest paths (a
// topologically-aware mesh), and, unless cfg.Compact, derives the pairwise
// peer latencies Latency answers from.
//
// Each peer's nearest peers come from one truncated search (nearestPeers)
// that settles just the ball around its host, never a latency row. The
// searches are independent and draw nothing, so they fan over GOMAXPROCS
// workers (one truncState each) into a flat peers×Degree result; links are
// then inserted and capacities drawn serially in peer order, so link indices
// and the RNG stream are those of a one-worker build.
func BuildOverlay(g *Graph, cfg OverlayConfig, rng *rand.Rand) *Overlay {
	if cfg.NumPeers > g.N() {
		panic(fmt.Sprintf("topology: %d peers exceed %d IP nodes", cfg.NumPeers, g.N()))
	}
	if cfg.Degree < 1 {
		cfg.Degree = 4
	}
	if cfg.CapMax <= 0 {
		cfg.CapMin, cfg.CapMax = 1000, 10000
	}
	n := cfg.NumPeers
	routeCap := cfg.RouteCacheSize
	if routeCap <= 0 {
		routeCap = defaultRouteCap(n)
	}
	o := &Overlay{
		peerIP:   rng.Perm(g.N())[:n],
		adj:      make([][]int, n),
		capMin:   cfg.CapMin,
		capMax:   cfg.CapMax,
		routeCap: routeCap,
	}
	peerOf := o.peerIndex(g.N())
	k := cfg.Degree
	found := make([]settledPeer, n*k) // peer u's nearest: found[u*k : u*k+count[u]]
	count := make([]int32, n)
	par.FanOut(n, func() func(int) {
		var ts truncState
		return func(u int) {
			count[u] = int32(copy(found[u*k:(u+1)*k], g.nearestPeers(o.peerIP[u], peerOf, k, &ts)))
		}
	})
	for u := 0; u < n; u++ {
		o.link(u, found[u*k:u*k+int(count[u])], rng)
	}
	if !cfg.Compact {
		o.lat = g.PairDistances(o.peerIP)
	}
	return o
}

// peerIndex maps each of the n IP nodes to the peer it hosts, -1 for none.
func (o *Overlay) peerIndex(n int) []int32 {
	peerOf := make([]int32, n)
	for i := range peerOf {
		peerOf[i] = -1
	}
	for p, ip := range o.peerIP {
		peerOf[ip] = int32(p)
	}
	return peerOf
}

// link connects peer u to each of its nearest peers it is not linked to yet,
// in order, at the settled IP-layer distance, drawing each new link's
// capacity from rng.
func (o *Overlay) link(u int, nearest []settledPeer, rng *rand.Rand) {
	for _, sp := range nearest {
		v := int(sp.peer)
		if o.hasLink(u, v) {
			continue
		}
		idx := len(o.links)
		c := o.capMin + rng.Float64()*(o.capMax-o.capMin)
		o.links = append(o.links, overlayLink{u: u, v: v, latency: sp.dist, capacity: c})
		o.avail = append(o.avail, c)
		o.adj[u] = append(o.adj[u], idx)
		o.adj[v] = append(o.adj[v], idx)
	}
}

// hasLink scans the shorter of u's and v's link lists, a mesh degree's worth.
func (o *Overlay) hasLink(u, v int) bool {
	if len(o.adj[v]) < len(o.adj[u]) {
		u, v = v, u
	}
	return slices.ContainsFunc(o.adj[u], func(idx int) bool { return o.links[idx].u == v || o.links[idx].v == v })
}

// N returns the number of peers.
func (o *Overlay) N() int { return len(o.peerIP) }

// NumLinks returns the number of overlay links.
func (o *Overlay) NumLinks() int { return len(o.links) }

// PeerIP returns the IP node hosting peer p.
func (o *Overlay) PeerIP(p int) int { return o.peerIP[p] }

// Latency returns the one-way control-message latency between peers a and b
// in milliseconds: the IP-layer shortest path between their hosts. It panics
// on a compact overlay, which keeps no latency matrix.
func (o *Overlay) Latency(a, b int) float64 {
	if o.lat == nil {
		panic("topology: Latency on a compact overlay: it keeps no latency matrix")
	}
	return o.lat[a][b]
}

// AddPeer extends a built overlay with one new peer hosted on IP node ip,
// which must host no peer yet: the newcomer is linked to its `degree`
// latency-nearest peers by the search BuildOverlay links every peer with,
// its latency row is derived from fresh IP shortest paths, and the route
// cache is invalidated. It returns the new peer's index. This is the
// data-plane half of a dynamic peer arrival. It panics on a compact overlay,
// which has no latency matrix to extend.
func (o *Overlay) AddPeer(g *Graph, ip, degree int, rng *rand.Rand) int {
	if o.lat == nil {
		panic("topology: AddPeer on a compact overlay: it keeps no latency matrix")
	}
	if degree < 1 {
		degree = 4
	}
	nearest := g.nearestPeers(ip, o.peerIndex(g.N()), degree, &truncState{})
	dist := g.Dijkstra(ip)
	n := len(o.peerIP)
	row := make([]float64, n+1)
	for q, ipq := range o.peerIP {
		row[q] = dist[ipq]
		o.lat[q] = append(o.lat[q], dist[ipq])
	}
	o.peerIP = append(o.peerIP, ip)
	o.lat = append(o.lat, row)
	o.adj = append(o.adj, nil)
	o.link(n, nearest, rng)
	o.r = nil // its link CSR and tables predate the newcomer
	return n
}

// newRouter packs the per-peer link lists into the link CSR, plans its sweep
// and allocates the sweep scratch and an empty cache.
func (o *Overlay) newRouter() *router {
	n := o.N()
	r := &router{slotOf: make([]*routeSlot, n)}
	r.off = make([]int32, n+1)
	for p, idxs := range o.adj {
		r.off[p+1] = r.off[p] + int32(len(idxs))
	}
	half := r.off[n]
	r.to, r.w, r.link = make([]int32, half), make([]float64, half), make([]int32, half)
	for p, idxs := range o.adj {
		at := r.off[p]
		for _, idx := range idxs {
			l := o.links[idx]
			to := l.u
			if to == p {
				to = l.v
			}
			r.to[at], r.w[at], r.link[at] = int32(to), l.latency, int32(idx)
			at++
		}
	}
	r.plan()
	r.sweepState = r.newSweepState()
	return r
}

// unlink takes s off the recency list.
func (r *router) unlink(s *routeSlot) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		r.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		r.tail = s.prev
	}
}

// pushFront makes s the most recently used slot.
func (r *router) pushFront(s *routeSlot) {
	s.prev, s.next = nil, r.head
	if r.head != nil {
		r.head.prev = s
	} else {
		r.tail = s
	}
	r.head = s
}

// tree is the route oracle every query goes through: it returns a table in
// which b's predecessor chain leads back to a, the a→b latency, and ok=false
// if no route exists. The table is only valid until the next query, and nil
// when a == b: that chain is empty, so nothing walks it.
//
// Per-source tables are cached in an LRU bounded by
// OverlayConfig.RouteCacheSize and invalidated only by AddPeer, since links
// otherwise never change. A miss starts a's sweep over the link CSR — on a
// full cache in the evicted LRU table's arrays, so it allocates nothing — and
// every query settles a's table until b is final, resuming the sweep an
// earlier query paused: each source is swept at most once, and only as far
// as its targets. A paused sweep resumes exactly (see settle), so a table
// depends on nothing but its source, the cache bound and the query order
// affect memory and recomputation, not results, and same-seed traces stay
// byte-identical at any bound.
func (o *Overlay) tree(a, b int) (*routeTable, float64, bool) {
	if a == b {
		return nil, 0, true
	}
	if o.r == nil {
		o.r = o.newRouter()
	}
	r := o.r
	s := r.slotOf[a]
	switch {
	case s != nil:
		if s != r.head {
			r.unlink(s)
			r.pushFront(s)
		}
	case r.cached < o.routeCap:
		s = &routeSlot{rt: newRouteTable(o.N())}
		r.cached++
	default:
		// Eviction follows only the (deterministic) access sequence, so
		// same-seed runs evict identically.
		s = r.tail
		r.unlink(s)
		r.slotOf[s.src] = nil
	}
	if r.slotOf[a] != s { // a miss: start a's sweep in the slot
		s.src = a
		r.start(a, &s.rt)
		r.pushFront(s)
		r.slotOf[a] = s
	}
	if !r.final(&s.rt, b) {
		r.settle(b, &s.rt, &r.sweepState)
	}
	return &s.rt, s.rt.dist[b], !math.IsInf(s.rt.dist[b], 1)
}

// Route returns the shortest-latency overlay path from a to b, or ok=false
// if none exists. Callers that only need the path's cost use PathCost, which
// allocates nothing.
func (o *Overlay) Route(a, b int) (Path, bool) {
	rt, lat, ok := o.tree(a, b)
	if !ok {
		return Path{}, false
	}
	return rt.path(a, b, lat), true
}

// path materializes the a→b path from a table holding b's chain. Walk the
// predecessor chain once to size the path exactly, then fill backward: two
// right-sized allocations instead of append-grow + reverse.
func (rt *routeTable) path(a, b int, lat float64) Path {
	hops := 0
	for at := b; at != a; at = int(rt.prev[at].peer) {
		hops++
	}
	peers := make([]int, hops+1)
	links := make([]int, hops)
	i := hops
	for at := b; at != a; at = int(rt.prev[at].peer) {
		peers[i] = at
		links[i-1] = int(rt.prev[at].link)
		i--
	}
	peers[0] = a
	return Path{Peers: peers, Links: links, Latency: lat}
}

// PathCost returns what Route(a, b) followed by AvailBandwidth would — the
// path's latency in ms and its bottleneck available bandwidth in kbps (+Inf
// when a == b) — by folding along the predecessor chain instead of building
// the Path. BCP asks this for every next-hop candidate of every probe.
func (o *Overlay) PathCost(a, b int) (latencyMs, bandAvail float64, ok bool) {
	rt, lat, ok := o.tree(a, b)
	if !ok {
		return 0, 0, false
	}
	return lat, o.bottleneck(rt, a, b), true
}

// PathLatency is PathCost's latency alone (+Inf when !ok): the cached table's
// distance to b, with no walk of the predecessor chain.
func (o *Overlay) PathLatency(a, b int) (latencyMs float64, ok bool) {
	_, lat, ok := o.tree(a, b)
	return lat, ok
}

func (o *Overlay) bottleneck(rt *routeTable, a, b int) float64 {
	bw := math.Inf(1)
	for at := b; at != a; {
		st := rt.prev[at]
		bw = min(bw, o.avail[st.link])
		at = int(st.peer)
	}
	return bw
}

// AvailBandwidth returns the bottleneck available bandwidth along p in kbps.
// An empty path (same source and destination) has infinite bandwidth.
func (o *Overlay) AvailBandwidth(p Path) float64 {
	bw := math.Inf(1)
	for _, idx := range p.Links {
		bw = min(bw, o.avail[idx])
	}
	return bw
}

// AllocBandwidth reserves bw kbps on every link of the a→b route. It either
// reserves on all links or none, returning whether the reservation succeeded.
func (o *Overlay) AllocBandwidth(a, b int, bw float64) bool {
	rt, _, ok := o.tree(a, b)
	if !ok || o.bottleneck(rt, a, b) < bw {
		return false
	}
	for at := b; at != a; at = int(rt.prev[at].peer) {
		o.avail[rt.prev[at].link] -= bw
	}
	return true
}

// ReleaseBandwidth returns bw kbps to every link of the a→b route, clamping
// at capacity.
func (o *Overlay) ReleaseBandwidth(a, b int, bw float64) {
	rt, _, ok := o.tree(a, b)
	if !ok {
		return
	}
	for at := b; at != a; at = int(rt.prev[at].peer) {
		l := rt.prev[at].link
		o.avail[l] = min(o.avail[l]+bw, o.links[l].capacity)
	}
}

// WideAreaLatencies builds an n×n one-way latency matrix (milliseconds)
// shaped like a wide-area deployment across a few geographic clusters
// (the PlanetLab stand-in used by the live runtime): low intra-cluster
// latency, tens of milliseconds cross-continent, ~80–120 ms transatlantic.
func WideAreaLatencies(n int, rng *rand.Rand) [][]float64 {
	type cluster struct{ share float64 }
	clusters := []cluster{{0.4}, {0.35}, {0.25}} // US-West, US-East, Europe
	assign := make([]int, n)
	for i := range assign {
		r := rng.Float64()
		acc := 0.0
		for c, cl := range clusters {
			acc += cl.share
			if r < acc {
				assign[i] = c
				break
			}
		}
	}
	base := [3][3]float64{
		{5, 35, 90},
		{35, 5, 75},
		{90, 75, 8},
	}
	lat := make([][]float64, n)
	for i := range lat {
		lat[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b := base[assign[i]][assign[j]]
			l := b * (0.8 + 0.4*rng.Float64()) // ±20% jitter around the base
			lat[i][j] = l
			lat[j][i] = l
		}
	}
	return lat
}
