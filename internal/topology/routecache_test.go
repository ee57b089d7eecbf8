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

// oracleRoute answers a→b from a fresh full Dijkstra table, bypassing the
// cache, the truncated search and table recycling.
func oracleRoute(o *Overlay, a, b int) (Path, bool) {
	var rt routeTable
	o.dijkstra(a, &rt)
	if math.IsInf(rt.dist[b], 1) {
		return Path{}, false
	}
	return rt.path(a, b, rt.dist[b]), true
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
	if len(tight.routeCache) > 2 {
		t.Fatalf("K=2 cache holds %d tables", len(tight.routeCache))
	}
}

// TestRouteCacheMissCorrect compares every route served after the cache is
// full — truncated fast path and evict-and-recompute into the victim's
// recycled arrays alike — against an uncached full Dijkstra oracle.
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
	if len(o.routeCache) > 5 {
		t.Fatalf("cache holds %d tables, bound is 5", len(o.routeCache))
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
	if len(o.routeCache) != 0 {
		t.Fatalf("AddPeer left %d cached tables", len(o.routeCache))
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
	for src, s := range o.routeCache {
		if len(s.rt.dist) != o.N() || len(s.rt.prevPeer) != o.N() || len(s.rt.prevLink) != o.N() {
			t.Fatalf("table of source %d has stale length %d, overlay has %d peers", src, len(s.rt.dist), o.N())
		}
	}
}

// TestRouteNearUnreachableVerdict exercises the truncated search's
// drained-component verdict: with the cache full, a route between different
// components must return ok=false without a full-table fallback changing the
// answer.
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
