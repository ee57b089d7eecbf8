package topology

import (
	"fmt"
	"math"
	"math/rand"
)

type overlayLink struct {
	u, v     int
	latency  float64 // ms, from IP-layer shortest path between u and v
	capacity float64 // kbps
	avail    float64 // kbps still unallocated
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
// IP-layer latency — except on a compact overlay, which has no latency matrix
// and answers unlinked pairs with the overlay-path latency (see Latency).
//
// Like Graph, the link set has a mutable build phase and a frozen CSR form:
// routing consumes packed per-peer (neighbor, link, latency) arrays built
// lazily on the first Route and invalidated by AddPeer.
type Overlay struct {
	peerIP  []int
	lat     [][]float64 // pairwise peer latency over IP shortest paths; nil in compact mode
	links   []overlayLink
	adj     [][]int             // per-peer incident link indices
	linkSet map[uint64]struct{} // unordered peer pairs with a link, for O(1) hasLink

	capMin, capMax float64 // link capacity range, for peers added later

	// Bounded per-source route cache: an LRU of at most routeCap full
	// Dijkstra tables, so steady-state memory is O(routeCap·peers) no matter
	// how many sources probe. Once the cache is full, near destinations are
	// answered by a truncated search over the trunc scratch state instead of
	// evicting a table, and a far one recomputes into the evicted table's
	// arrays — see tree. pq is the one heap both searches run on.
	routeCap   int
	routeCache map[int]*routeSlot
	lruHead    *routeSlot // most recently used
	lruTail    *routeSlot // next eviction victim
	trunc      *truncRouteState
	pq         distPQ

	// Frozen link CSR: peer p's incident links occupy [loff[p], loff[p+1])
	// in lto (the far endpoint), llink (the link index), and llat (the link
	// latency), packed in adj insertion order so routing relaxes in exactly
	// the order the slice-of-slices representation did.
	loff  []int32
	lto   []int32
	llink []int32
	llat  []float64
}

// routeTable is one source's shortest-path tree, 16 B per peer: the latency
// to every peer and the (peer, link) each is reached through, -1 at the source
// and at unreachable peers.
type routeTable struct {
	dist     []float64
	prevPeer []int32
	prevLink []int32
}

func newRouteTable(n int) routeTable {
	return routeTable{dist: make([]float64, n), prevPeer: make([]int32, n), prevLink: make([]int32, n)}
}

// routeSlot is one LRU entry: a full per-source routing table threaded on the
// recency list.
type routeSlot struct {
	src        int
	rt         routeTable
	prev, next *routeSlot // prev = more recent
}

// truncRouteState is the reusable scratch for the truncated-Dijkstra fast
// path: a table whose entries are valid only where stamp carries the current
// epoch, which makes per-call initialization O(touched) instead of O(peers).
type truncRouteState struct {
	routeTable
	stamp []uint32
	epoch uint32
}

// routeCacheBudget is the memory the route cache may hold when
// OverlayConfig.RouteCacheSize is zero: as many 16 B/peer tables as fit in
// 32 MB — 2,097 at 1,000 peers, 69 at 30,000, 20 at 100,000. An entry count
// cannot be right at every scale; the traffic sets the one that matters: on
// the paper's §6.1 world (1,000 peers) BCP makes every peer a route source,
// and under the former 512-table bound one steady benchmark round ran 9,600
// full Dijkstras for those 1,000 sources. With all of them resident (16 MB)
// it runs 1,000.
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
	// Compact skips the O(peers²) pairwise latency matrix: mesh links are
	// found with truncated per-peer Dijkstra searches (stop once the k
	// nearest peers have settled), and Latency falls back to overlay-path
	// latency for unlinked pairs. This is the only mode that fits a
	// 10,000-peer overlay in a laptop-class memory budget; it does not
	// support AddPeer.
	Compact bool
	// RouteCacheSize bounds how many per-source routing tables Route may
	// retain (LRU eviction beyond it). Zero or less bounds the cache by
	// memory instead: as many tables as fit routeCacheBudget. Routes
	// themselves are independent of the cache state, so any bound produces
	// byte-identical results — only memory and recomputation change.
	RouteCacheSize int
}

// BuildOverlay selects cfg.NumPeers distinct IP nodes from g as peers,
// derives pairwise peer latencies from IP shortest paths, and links each
// peer to its cfg.Degree latency-nearest peers (a topologically-aware mesh).
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
		peerIP:     rng.Perm(g.N())[:n],
		adj:        make([][]int, n),
		linkSet:    make(map[uint64]struct{}),
		capMin:     cfg.CapMin,
		capMax:     cfg.CapMax,
		routeCap:   routeCap,
		routeCache: make(map[int]*routeSlot),
	}
	if cfg.Compact {
		o.buildCompactMesh(g, cfg, rng)
		return o
	}
	// Pairwise peer latency over IP shortest paths, computed in one batched
	// pass fanned over the available cores.
	o.lat = g.PairDistances(o.peerIP)

	cap := func() float64 { return cfg.CapMin + rng.Float64()*(cfg.CapMax-cfg.CapMin) }
	addLink := func(u, v int) {
		if u == v || o.hasLink(u, v) {
			return
		}
		o.linkSet[pairKey(u, v)] = struct{}{}
		idx := len(o.links)
		c := cap()
		o.links = append(o.links, overlayLink{u: u, v: v, latency: o.lat[u][v], capacity: c, avail: c})
		o.adj[u] = append(o.adj[u], idx)
		o.adj[v] = append(o.adj[v], idx)
	}

	nearest := make([]int, 0, cfg.Degree)
	for u := 0; u < n; u++ {
		nearest = nearestInRow(o.lat[u], u, cfg.Degree, nearest)
		for _, v := range nearest {
			addLink(u, v)
		}
	}
	return o
}

// nearestInRow returns the indices of the k smallest entries of row other
// than row[skip], in ascending latency, equal latencies in index order — what
// stably sorting all of them and keeping the head would select — by insertion
// into buf[:0], the one k-slot buffer a caller reuses across rows.
func nearestInRow(row []float64, skip, k int, buf []int) []int {
	buf = buf[:0]
	for v, lat := range row {
		if v == skip || (len(buf) == k && !(lat < row[buf[k-1]])) {
			continue
		}
		if len(buf) < k {
			buf = append(buf, v)
		}
		i := len(buf) - 1
		for ; i > 0 && lat < row[buf[i-1]]; i-- {
			buf[i] = buf[i-1]
		}
		buf[i] = v
	}
	return buf
}

// buildCompactMesh wires each peer to its Degree nearest peers without ever
// materializing the pairwise latency matrix. One truncated Dijkstra per peer
// settles just the ball around its host until Degree foreign peers have been
// found; link latency is the settled IP-layer distance. Memory is O(peers +
// links + IP nodes) instead of O(peers²).
//
// The searches are independent and draw nothing, so they fan over GOMAXPROCS
// workers (one truncState each) into a flat peers×Degree result; links are
// then inserted and capacities drawn serially in peer order, so link indices
// and the RNG stream are those of a one-worker build.
func (o *Overlay) buildCompactMesh(g *Graph, cfg OverlayConfig, rng *rand.Rand) {
	n, k := len(o.peerIP), cfg.Degree
	peerOf := make([]int32, g.N())
	for i := range peerOf {
		peerOf[i] = -1
	}
	for p, ip := range o.peerIP {
		peerOf[ip] = int32(p)
	}
	isPeer := func(v int32) bool { return peerOf[v] >= 0 }

	g.Freeze()
	found := make([]settledPeer, n*k) // peer u's nearest: found[u*k : u*k+count[u]]
	count := make([]int32, n)
	fanOut(n, func() func(int) {
		var ts truncState
		return func(u int) {
			count[u] = int32(copy(found[u*k:(u+1)*k], g.nearestPeers(o.peerIP[u], isPeer, k, &ts)))
		}
	})

	for u := 0; u < n; u++ {
		for _, sp := range found[u*k : u*k+int(count[u])] {
			v := int(peerOf[sp.node])
			if u == v || o.hasLink(u, v) {
				continue
			}
			o.linkSet[pairKey(u, v)] = struct{}{}
			idx := len(o.links)
			c := cfg.CapMin + rng.Float64()*(cfg.CapMax-cfg.CapMin)
			o.links = append(o.links, overlayLink{u: u, v: v, latency: sp.dist, capacity: c, avail: c})
			o.adj[u] = append(o.adj[u], idx)
			o.adj[v] = append(o.adj[v], idx)
		}
	}
}

// Compact reports whether this overlay was built without the pairwise
// latency matrix.
func (o *Overlay) Compact() bool { return o.lat == nil }

func (o *Overlay) hasLink(u, v int) bool {
	_, ok := o.linkSet[pairKey(u, v)]
	return ok
}

// N returns the number of peers.
func (o *Overlay) N() int { return len(o.peerIP) }

// NumLinks returns the number of overlay links.
func (o *Overlay) NumLinks() int { return len(o.links) }

// PeerIP returns the IP node hosting peer p.
func (o *Overlay) PeerIP(p int) int { return o.peerIP[p] }

// Latency returns the one-way control-message latency between peers a and b
// in milliseconds (the IP-layer shortest path between their hosts). On a
// compact overlay the matrix does not exist: linked pairs answer from the
// link, anything else from the overlay-path latency (+Inf when disconnected).
func (o *Overlay) Latency(a, b int) float64 {
	if a == b {
		return 0
	}
	if o.lat != nil {
		return o.lat[a][b]
	}
	if _, lat, ok := o.tree(a, b); ok {
		return lat
	}
	return math.Inf(1)
}

// Degree returns the number of overlay links incident to peer p.
func (o *Overlay) Degree(p int) int { return len(o.adj[p]) }

// AddPeer extends a built overlay with one new peer hosted on IP node ip:
// pairwise latencies are derived from fresh IP shortest paths, the newcomer
// is connected to its `degree` latency-nearest peers (mesh-style), and the
// route cache is invalidated. It returns the new peer's index. This is the
// data-plane half of a dynamic peer arrival.
func (o *Overlay) AddPeer(g *Graph, ip, degree int, rng *rand.Rand) int {
	if o.lat == nil {
		panic("topology: AddPeer on a compact overlay")
	}
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

	if degree < 1 {
		degree = 4
	}
	for _, v := range nearestInRow(row, n, degree, nil) {
		if o.hasLink(n, v) {
			continue
		}
		o.linkSet[pairKey(n, v)] = struct{}{}
		idx := len(o.links)
		c := o.capMin + rng.Float64()*(o.capMax-o.capMin)
		o.links = append(o.links, overlayLink{u: n, v: v, latency: row[v], capacity: c, avail: c})
		o.adj[n] = append(o.adj[n], idx)
		o.adj[v] = append(o.adj[v], idx)
	}
	o.cacheReset()
	o.loff, o.lto, o.llink, o.llat = nil, nil, nil, nil
	return n
}

// cacheReset drops every cached routing table and the truncated-search
// scratch (their arrays are sized to the peer count, which may have changed).
func (o *Overlay) cacheReset() {
	o.routeCache = make(map[int]*routeSlot)
	o.lruHead, o.lruTail = nil, nil
	o.trunc = nil
}

// lruUnlink takes s off the recency list.
func (o *Overlay) lruUnlink(s *routeSlot) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		o.lruHead = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		o.lruTail = s.prev
	}
}

// lruPushFront makes s the most recently used slot.
func (o *Overlay) lruPushFront(s *routeSlot) {
	s.prev, s.next = nil, o.lruHead
	if o.lruHead != nil {
		o.lruHead.prev = s
	} else {
		o.lruTail = s
	}
	o.lruHead = s
}

// freezeLinks packs the per-peer link lists into the frozen CSR arrays.
func (o *Overlay) freezeLinks() {
	n := o.N()
	o.loff = make([]int32, n+1)
	for p, idxs := range o.adj {
		o.loff[p+1] = o.loff[p] + int32(len(idxs))
	}
	half := o.loff[n]
	o.lto = make([]int32, half)
	o.llink = make([]int32, half)
	o.llat = make([]float64, half)
	for p, idxs := range o.adj {
		at := o.loff[p]
		for _, idx := range idxs {
			l := o.links[idx]
			to := l.u
			if to == p {
				to = l.v
			}
			o.lto[at] = int32(to)
			o.llink[at] = int32(idx)
			o.llat[at] = l.latency
			at++
		}
	}
}

// tree is the route oracle every query goes through: it returns a table in
// which b's predecessor chain leads back to a, the a→b latency, and ok=false
// if no route exists. The table is only valid until the next query, and nil
// when a == b: that chain is empty, so nothing walks it.
//
// Per-source tables are cached in an LRU bounded by
// OverlayConfig.RouteCacheSize and invalidated only by AddPeer, since links
// otherwise never change. Once the cache is full, a near destination (one
// that settles within a small ball around the source) is answered by a
// truncated search without touching the cache; only far destinations pay a
// full Dijkstra, which evicts the LRU table and computes into its arrays, so
// a miss on a full cache allocates nothing. Because Dijkstra's relaxation
// order is deterministic and settled entries never change, every code path
// yields the identical chain — the cache bound affects memory and
// recomputation, not results, so same-seed traces stay byte-identical at any
// bound.
func (o *Overlay) tree(a, b int) (*routeTable, float64, bool) {
	if a == b {
		return nil, 0, true
	}
	s, ok := o.routeCache[a]
	switch {
	case ok:
		if s != o.lruHead {
			o.lruUnlink(s)
			o.lruPushFront(s)
		}
		return &s.rt, s.rt.dist[b], !math.IsInf(s.rt.dist[b], 1)
	case len(o.routeCache) < o.routeCap:
		s = &routeSlot{}
	default:
		if lat, ok, hit := o.routeNear(a, b); hit {
			return &o.trunc.routeTable, lat, ok
		}
		// Eviction follows only the (deterministic) access sequence, so
		// same-seed runs evict identically.
		s = o.lruTail
		o.lruUnlink(s)
		delete(o.routeCache, s.src)
	}
	s.src = a
	o.dijkstra(a, &s.rt)
	o.lruPushFront(s)
	o.routeCache[a] = s
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
	for at := b; at != a; at = int(rt.prevPeer[at]) {
		hops++
	}
	peers := make([]int, hops+1)
	links := make([]int, hops)
	i := hops
	for at := b; at != a; at = int(rt.prevPeer[at]) {
		peers[i] = at
		links[i-1] = int(rt.prevLink[at])
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

func (o *Overlay) bottleneck(rt *routeTable, a, b int) float64 {
	bw := math.Inf(1)
	for at := b; at != a; at = int(rt.prevPeer[at]) {
		if v := o.links[rt.prevLink[at]].avail; v < bw {
			bw = v
		}
	}
	return bw
}

// routeNear runs Dijkstra from a but stops as soon as b settles, giving up
// once the settled ball exceeds ~n/8 peers. hit reports whether the search
// reached a verdict: b settled (its chain in o.trunc is exact — a settled
// node's distance and predecessor are final, and the relaxation order up to
// that point is identical to the full run's), or a's entire component
// settled without finding b (no route exists). hit=false means b lies outside
// the ball and the caller must fall back to a full Dijkstra. Nothing is
// cached; the epoch-stamped scratch keeps per-call cost O(ball), not O(peers).
func (o *Overlay) routeNear(a, b int) (lat float64, ok, hit bool) {
	if o.loff == nil {
		o.freezeLinks()
	}
	n := o.N()
	ts := o.trunc
	if ts == nil || len(ts.dist) < n {
		ts = &truncRouteState{routeTable: newRouteTable(n), stamp: make([]uint32, n)}
		o.trunc = ts
	}
	ts.epoch++
	if ts.epoch == 0 { // wrapped: stale stamps could alias, clear them
		for i := range ts.stamp {
			ts.stamp[i] = 0
		}
		ts.epoch = 1
	}
	touch := func(v int32) {
		if ts.stamp[v] != ts.epoch {
			ts.stamp[v] = ts.epoch
			ts.dist[v] = math.Inf(1)
			ts.prevPeer[v] = -1
			ts.prevLink[v] = -1
		}
	}
	limit := n / 8
	if limit < 32 {
		limit = 32
	}
	pq := &o.pq
	pq.reset()
	touch(int32(a))
	ts.dist[a] = 0
	pq.push(distItem{node: a, dist: 0})
	settled := 0
	for pq.len() > 0 {
		it := pq.pop()
		if it.dist > ts.dist[it.node] {
			continue
		}
		if it.node == b {
			return it.dist, true, true
		}
		settled++
		if settled >= limit {
			return 0, false, false
		}
		for i, end := o.loff[it.node], o.loff[it.node+1]; i < end; i++ {
			to := o.lto[i]
			touch(to)
			if nd := it.dist + o.llat[i]; nd < ts.dist[to] {
				ts.dist[to] = nd
				ts.prevPeer[to] = int32(it.node)
				ts.prevLink[to] = o.llink[i]
				pq.push(distItem{node: int(to), dist: nd})
			}
		}
	}
	// The queue drained before the limit: a's entire component is settled
	// and b is not in it.
	return 0, false, true
}

// dijkstra fills rt with src's full shortest-path tree, reusing rt's arrays
// when they fit (an evicted table's) and overwriting every entry.
func (o *Overlay) dijkstra(src int, rt *routeTable) {
	if o.loff == nil {
		o.freezeLinks()
	}
	if n := o.N(); len(rt.dist) != n {
		*rt = newRouteTable(n)
	}
	for i := range rt.dist {
		rt.dist[i] = math.Inf(1)
		rt.prevPeer[i] = -1
		rt.prevLink[i] = -1
	}
	rt.dist[src] = 0
	pq := &o.pq
	pq.reset()
	pq.push(distItem{node: src, dist: 0})
	for pq.len() > 0 {
		it := pq.pop()
		if it.dist > rt.dist[it.node] {
			continue
		}
		for i, end := o.loff[it.node], o.loff[it.node+1]; i < end; i++ {
			to := o.lto[i]
			if nd := it.dist + o.llat[i]; nd < rt.dist[to] {
				rt.dist[to] = nd
				rt.prevPeer[to] = int32(it.node)
				rt.prevLink[to] = o.llink[i]
				pq.push(distItem{node: int(to), dist: nd})
			}
		}
	}
}

// AvailBandwidth returns the bottleneck available bandwidth along p in kbps.
// An empty path (same source and destination) has infinite bandwidth.
func (o *Overlay) AvailBandwidth(p Path) float64 {
	bw := math.Inf(1)
	for _, idx := range p.Links {
		if a := o.links[idx].avail; a < bw {
			bw = a
		}
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
	for at := b; at != a; at = int(rt.prevPeer[at]) {
		o.links[rt.prevLink[at]].avail -= bw
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
	for at := b; at != a; at = int(rt.prevPeer[at]) {
		l := &o.links[rt.prevLink[at]]
		l.avail += bw
		if l.avail > l.capacity {
			l.avail = l.capacity
		}
	}
}

// LinkCapacity returns the total capacity of overlay link idx in kbps.
func (o *Overlay) LinkCapacity(idx int) float64 { return o.links[idx].capacity }

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
