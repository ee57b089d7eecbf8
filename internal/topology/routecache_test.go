package topology

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cacheOverlay builds the same mesh overlay deterministically with a given
// route-cache bound, so tests can compare behavior across bounds.
func cacheOverlay(t testing.TB, peers, cacheSize int) *Overlay {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := GeneratePowerLaw(600, 2, 2, 30, rng)
	return BuildOverlay(g, OverlayConfig{
		NumPeers:       peers,
		Degree:         4,
		CapMin:         1000,
		CapMax:         5000,
		RouteCacheSize: cacheSize,
	}, rng)
}

// pathString renders a path for byte-exact comparison.
func pathString(p Path, ok bool) string {
	return fmt.Sprintf("ok=%v peers=%v links=%v lat=%.9f", ok, p.Peers, p.Links, p.Latency)
}

// oracleRoute answers a→b from the heap reference's table (legacyTable),
// bypassing the cache, the sweep and table recycling.
func oracleRoute(o *Overlay, a, b int) (Path, bool) {
	rt := legacyTable(o, a)
	if math.IsInf(rt.dist[b], 1) {
		return Path{}, false
	}
	return rt.path(a, b, rt.dist[b]), true
}

// cachedTables is the route cache's table count: the LRU's, zero before the
// first route and after AddPeer.
func cachedTables(o *Overlay) int {
	if o.r == nil {
		return 0
	}
	return o.r.cached
}

// TestRouteCacheEvictionDeterministic drives the identical route sequence
// through a K=2 cache (evicting on nearly every source change) and one that
// holds every source, and requires byte-identical paths: the bound may change
// memory and recomputation, never results.
func TestRouteCacheEvictionDeterministic(t *testing.T) {
	tight := cacheOverlay(t, 80, 2)
	unbounded := cacheOverlay(t, 80, 80)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 600; i++ {
		a, b := rng.Intn(80), rng.Intn(80)
		pt, okt := tight.Route(a, b)
		pu, oku := unbounded.Route(a, b)
		if got, want := pathString(pt, okt), pathString(pu, oku); got != want {
			t.Fatalf("route %d→%d diverges at K=2:\n  K=2: %s\n  K=∞: %s", a, b, got, want)
		}
	}
	if n := cachedTables(tight); n > 2 {
		t.Fatalf("K=2 cache holds %d tables", n)
	}
}

// TestRouteCacheMissCorrect compares every route served after the cache is
// full — each one a sweep into the evicted victim's recycled arrays —
// against the uncached heap reference.
func TestRouteCacheMissCorrect(t *testing.T) {
	o := cacheOverlay(t, 80, 3)
	// Fill the cache from three sources, then route from every other source:
	// each of these is a cache miss on first touch.
	for src := 0; src < 3; src++ {
		o.Route(src, 40)
	}
	for a := 3; a < 80; a++ {
		for _, b := range []int{0, a % 7, 79 - a%13, 40} {
			if a == b {
				continue
			}
			got, gok := o.Route(a, b)
			want, wok := oracleRoute(o, a, b)
			if pathString(got, gok) != pathString(want, wok) {
				t.Fatalf("route %d→%d: cache-miss path %s != oracle %s",
					a, b, pathString(got, gok), pathString(want, wok))
			}
		}
	}
}

// TestRouteCacheBounded checks the LRU never exceeds its bound no matter how
// many distinct sources probe, and that the byte budget sets the bound when
// the config leaves the size zero.
func TestRouteCacheBounded(t *testing.T) {
	o := cacheOverlay(t, 80, 5)
	for a := 0; a < 80; a++ {
		for b := 0; b < 80; b += 11 {
			o.Route(a, b)
		}
	}
	if n := cachedTables(o); n > 5 {
		t.Fatalf("cache holds %d tables, bound is 5", n)
	}
	for _, c := range []struct{ peers, want int }{{10, 209715}, {500, 4194}} {
		if def := cacheOverlay(t, c.peers, 0); def.routeCap != c.want {
			t.Fatalf("zero RouteCacheSize at %d peers → routeCap %d, want %d (32 MB of 16 B/peer tables)",
				c.peers, def.routeCap, c.want)
		}
	}
	for _, c := range []struct{ peers, want int }{{1000, 2097}, {30_000, 69}, {100_000, 20}, {10_000_000, 1}} {
		if got := defaultRouteCap(c.peers); got != c.want {
			t.Fatalf("defaultRouteCap(%d) = %d, want %d", c.peers, got, c.want)
		}
	}
}

// TestRouteCacheInvalidatedByAddPeer verifies AddPeer drops every cached
// table, leaving none of the old length to recycle: post-arrival routes must
// see the newcomer and match a fresh oracle.
func TestRouteCacheInvalidatedByAddPeer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := GeneratePowerLaw(600, 2, 2, 30, rng)
	o := BuildOverlay(g, OverlayConfig{
		NumPeers: 60, Degree: 4,
		CapMin: 1000, CapMax: 5000, RouteCacheSize: 4,
	}, rng)
	// Warm the cache.
	for a := 0; a < 8; a++ {
		o.Route(a, 30)
	}
	// Pick an unused IP node for the newcomer.
	used := make(map[int]bool)
	for p := 0; p < o.N(); p++ {
		used[o.PeerIP(p)] = true
	}
	ip := -1
	for v := 0; v < g.N(); v++ {
		if !used[v] {
			ip = v
			break
		}
	}
	np := o.AddPeer(g, ip, 4, rng)
	if n := cachedTables(o); n != 0 {
		t.Fatalf("AddPeer left %d cached tables", n)
	}
	// Every cached-before source must now route to the new peer, and all
	// routes must match a fresh oracle over the grown overlay.
	for a := 0; a < 8; a++ {
		got, gok := o.Route(a, np)
		want, wok := oracleRoute(o, a, np)
		if !gok {
			t.Fatalf("no route %d→new peer %d after AddPeer", a, np)
		}
		if pathString(got, gok) != pathString(want, wok) {
			t.Fatalf("stale route %d→%d after AddPeer: %s != oracle %s",
				a, np, pathString(got, gok), pathString(want, wok))
		}
	}
	// Eight sources through four slots: the later misses recycled tables, and
	// every table they could recycle was sized after the arrival.
	for s := o.r.head; s != nil; s = s.next {
		if len(s.rt.dist) != o.N() || len(s.rt.prev) != o.N() {
			t.Fatalf("table of source %d has stale length %d, overlay has %d peers", s.src, len(s.rt.dist), o.N())
		}
	}
}

// TestRouteCacheDisconnectedComponents exercises the full sweep's no-route
// verdict: with the single-slot cache full, every miss evicts and sweeps
// its source's whole component, and a route to a severed peer, or from it,
// must return ok=false.
func TestRouteCacheDisconnectedComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := GeneratePowerLaw(300, 2, 2, 30, rng)
	o := BuildOverlay(g, OverlayConfig{
		NumPeers: 40, Degree: 2,
		CapMin: 1000, CapMax: 5000, RouteCacheSize: 1,
	}, rng)
	// Sever peer 0 from everything.
	dropLinks(o, func(u, v int) bool { return u == 0 || v == 0 })
	o.Route(1, 2) // fill the single-slot cache from another source
	for a := 3; a < 10; a++ {
		if _, ok := o.Route(a, 0); ok {
			t.Fatalf("route %d→0 should not exist after severing peer 0", a)
		}
		if _, ok := o.Route(0, a); ok {
			t.Fatalf("route 0→%d should not exist after severing peer 0", a)
		}
	}
}

// TestResumedSweepsMatchOneSweep replays seeded query streams on every
// meshWorlds shape at seeds 1–3 and cache bounds 1, 2 and ∞ (replayQueries),
// where tables pause, resume, complete, get evicted and start again. On the
// scale workload's 30,000-peer world a query for a source's neighbor must
// settle fewer peers than all of them.
func TestResumedSweepsMatchOneSweep(t *testing.T) {
	resumed := 0
	for _, w := range meshWorlds {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := GeneratePowerLaw(w.ipNodes, 2, 2, 30, rng)
			o := BuildOverlay(g, OverlayConfig{NumPeers: w.peers, Degree: 4, CapMin: 2000, CapMax: 10000, Compact: true}, rng)
			for _, k := range []int{1, 2, o.N()} {
				o.routeCap, o.r = k, nil
				resumed += replayQueries(t, fmt.Sprintf("%d/%d seed %d K=%d", w.ipNodes, w.peers, seed, k), o, rng, 300)
			}
		}
	}
	// Peer 1 is queued at 1.5 in the bucket of peer 2 at 1.2, whose
	// zero-weight link then lowers it to 1.2: a query for peer 1 is answered
	// only once that bucket is drained.
	zero := handOverlay(3, 1, overlayLink{u: 0, v: 1, latency: 1.5, capacity: 1000},
		overlayLink{u: 0, v: 2, latency: 1.2, capacity: 1000}, overlayLink{u: 2, v: 1, latency: 0, capacity: 1000})
	if lat, _, ok := zero.PathCost(0, 1); lat != 1.2 || !ok {
		t.Fatalf("zero-weight triangle: PathCost(0, 1) = %v, %v; want 1.2 over the zero-weight link", lat, ok)
	}
	resumed += replayQueries(t, "zero-weight triangle", zero, rand.New(rand.NewSource(1)), 60)
	if resumed == 0 {
		t.Fatal("no query resumed a paused sweep; the test exercised nothing")
	}
	if testing.Short() {
		t.Skip("300k-node world skipped in -short")
	}
	rng := rand.New(rand.NewSource(1))
	g := GeneratePowerLaw(300_000, 2, 2, 30, rng)
	o := BuildOverlay(g, OverlayConfig{NumPeers: 30_000, Degree: 4, CapMin: 2000, CapMax: 10000, Compact: true}, rng)
	near := o.links[o.adj[0][0]].v // peer 0 opened its own links
	rt, _, _ := o.tree(0, near)
	settled := 0
	for v, d := range rt.dist {
		if o.r.final(rt, v) && !math.IsInf(d, 1) {
			settled++
		}
	}
	if settled >= o.N() || len(rt.frontier) == 0 {
		t.Fatalf("a route to a neighbor settled %d of %d peers, frontier %d", settled, o.N(), len(rt.frontier))
	}
}

// handOverlay is an overlay of n peers joined by links, in order, each with
// its capacity free, and a route cache of k tables.
func handOverlay(n, k int, links ...overlayLink) *Overlay {
	o := &Overlay{peerIP: make([]int, n), adj: make([][]int, n), routeCap: k}
	for _, l := range links {
		o.adj[l.u] = append(o.adj[l.u], len(o.links))
		o.adj[l.v] = append(o.adj[l.v], len(o.links))
		o.links = append(o.links, l)
		o.avail = append(o.avail, l.capacity)
	}
	return o
}

// replayQueries runs a seeded stream of PathCost and Route queries on o —
// targets uniform, sources interleaved from a pool of five — and holds every
// answer to the table one uninterrupted csr.sweep of its source gives (see
// oneSweep), bit for bit, and the router's scratch to empty after every
// query. It returns how many queries resumed a paused sweep.
func replayQueries(t *testing.T, name string, o *Overlay, rng *rand.Rand, queries int) (resumed int) {
	t.Helper()
	whole := make(map[int]*routeTable)
	pool := rng.Perm(o.N())[:min(5, o.N())]
	for i := 0; i < queries; i++ {
		a, b := pool[rng.Intn(len(pool))], rng.Intn(o.N())
		if paused(o, a, b) {
			resumed++
		}
		if whole[a] == nil {
			whole[a] = oneSweep(o, a)
		}
		want := whole[a]
		wantOK := a == b || !math.IsInf(want.dist[b], 1)
		if i%2 == 0 {
			lat, band, ok := o.PathCost(a, b)
			wantLat, wantBand := 0.0, math.Inf(1)
			if wantOK && a != b {
				wantLat, wantBand = want.dist[b], o.bottleneck(want, a, b)
			}
			if ok != wantOK || ok && (math.Float64bits(lat) != math.Float64bits(wantLat) || math.Float64bits(band) != math.Float64bits(wantBand)) {
				t.Fatalf("%s query %d: PathCost(%d, %d) = (%v, %v, %v), one sweep (%v, %v, %v)", name, i, a, b, lat, band, ok, wantLat, wantBand, wantOK)
			}
		} else {
			got, ok := o.Route(a, b)
			var wantPath Path
			if wantOK {
				wantPath = want.path(a, b, want.dist[b])
			}
			if pathString(got, ok) != pathString(wantPath, wantOK) {
				t.Fatalf("%s query %d: Route(%d, %d) = %s, one sweep %s", name, i, a, b, pathString(got, ok), pathString(wantPath, wantOK))
			}
		}
		if o.r != nil {
			if d := scratchLeft(&o.r.sweepState); d != "" {
				t.Fatalf("%s query %d (%d→%d): %s", name, i, a, b, d)
			}
		}
	}
	return resumed
}

// paused reports whether a query a→b would resume a's cached, paused sweep:
// b is not final in it yet.
func paused(o *Overlay, a, b int) bool {
	if o.r == nil || o.r.slotOf[a] == nil || a == b {
		return false
	}
	return !o.r.final(&o.r.slotOf[a].rt, b)
}

// oneSweep is a's table from one csr.sweep that never pauses, in a router of
// its own: the reference every resumed table must equal.
func oneSweep(o *Overlay, a int) *routeTable {
	r := o.newRouter()
	rt := newRouteTable(o.N())
	r.sweep(a, &rt, &r.sweepState)
	return &rt
}

// scratchLeft names what a sweep left in its scratch — a live slot or a
// non-empty bucket — or returns "".
func scratchLeft(s *sweepState) string {
	for v, k := range s.slot {
		if k != -1 {
			return fmt.Sprintf("peer %d left in slot %d", v, k)
		}
	}
	for k, b := range s.ring {
		if len(b) != 0 {
			return fmt.Sprintf("bucket %d left with %d entries", k, len(b))
		}
	}
	return ""
}
