package topology

import (
	"math"
	"math/rand"
	"testing"
)

// dropLinks removes every overlay link for which drop returns true, and
// resets the route cache and the frozen link CSR so routing sees the cut.
func dropLinks(o *Overlay, drop func(u, v int) bool) {
	for p, idxs := range o.adj {
		keep := idxs[:0]
		for _, idx := range idxs {
			if l := o.links[idx]; !drop(l.u, l.v) {
				keep = append(keep, idx)
			}
		}
		o.adj[p] = keep
	}
	o.cacheReset()
	o.loff = nil
}

// TestPathCostMatchesRoute is the differential for the allocation-free cost
// walk: for random (a, b) over an overlay with two components, an isolated
// peer and bandwidth reserved on random routes, PathCost must equal Route +
// AvailBandwidth bit for bit — latency, bottleneck and ok — in every cache
// state: cold (miss, room left), hit, full-and-near (truncated search) and
// full-and-evict (full Dijkstra into the victim's arrays). The reference
// overlay holds every source, so it is only ever cold or hit.
func TestPathCostMatchesRoute(t *testing.T) {
	const peers = 80
	cut := func(u, v int) bool { return u == 0 || v == 0 || (u < peers/2) != (v < peers/2) }
	seen := map[string]int{}
	for _, k := range []int{3, peers} {
		pc, ref := cacheOverlay(t, peers, k), cacheOverlay(t, peers, peers)
		dropLinks(pc, cut)
		dropLinks(ref, cut)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 4000; i++ {
			a, b := rng.Intn(peers), rng.Intn(peers)
			if i%7 == 0 {
				bw := 200 + 800*rng.Float64()
				if got, want := pc.AllocBandwidth(a, b, bw), ref.AllocBandwidth(a, b, bw); got != want {
					t.Fatalf("K=%d alloc %d→%d: %v, reference %v", k, a, b, got, want)
				}
				if i%21 == 0 {
					pc.ReleaseBandwidth(a, b, bw)
					ref.ReleaseBandwidth(a, b, bw)
				}
				continue
			}
			state := "cold"
			_, cached := pc.routeCache[a]
			full := len(pc.routeCache) >= pc.routeCap
			if a == b {
				state = "self"
			} else if cached {
				state = "hit"
			}
			lat, band, ok := pc.PathCost(a, b)
			if _, now := pc.routeCache[a]; !cached && full && a != b {
				state = "full-and-near"
				if now {
					state = "full-and-evict"
				}
			}
			seen[state]++

			var wantLat, wantBand float64
			p, wantOK := ref.Route(a, b)
			if wantOK {
				wantLat, wantBand = p.Latency, ref.AvailBandwidth(p)
			}
			if ok != wantOK || math.Float64bits(lat) != math.Float64bits(wantLat) ||
				math.Float64bits(band) != math.Float64bits(wantBand) {
				t.Fatalf("K=%d %s %d→%d: PathCost (%v, %v, %v), Route+AvailBandwidth (%v, %v, %v)",
					k, state, a, b, lat, band, ok, wantLat, wantBand, wantOK)
			}
			if (a < peers/2) != (b < peers/2) && ok {
				t.Fatalf("K=%d %d→%d crosses the cut but has a route", k, a, b)
			}
		}
		if lat, band, ok := pc.PathCost(7, 7); lat != 0 || !math.IsInf(band, 1) || !ok {
			t.Fatalf("K=%d self cost = (%v, %v, %v), want (0, +Inf, true)", k, lat, band, ok)
		}
		if _, _, ok := pc.PathCost(0, 7); ok {
			t.Fatalf("K=%d isolated peer 0 has a route", k)
		}
	}
	for _, state := range []string{"cold", "hit", "full-and-near", "full-and-evict"} {
		if seen[state] == 0 {
			t.Fatalf("cache state %q never exercised: %v", state, seen)
		}
	}
}

// TestRecycledTableCarriesNothingOver evicts between two components larger
// than the truncated search's ball: each miss recomputes into arrays that
// still hold the other component's finite distances, and must nevertheless
// report no route across the cut and the oracle's route within it.
func TestRecycledTableCarriesNothingOver(t *testing.T) {
	const peers = 120
	o := cacheOverlay(t, peers, 1)
	dropLinks(o, func(u, v int) bool { return (u < peers/2) != (v < peers/2) })
	recycled := 0
	for i := 0; i < 40; i++ {
		a, b := i, peers-1-i // opposite components
		if i%2 == 1 {
			a, b = b, a
		}
		before := o.lruHead
		if _, _, ok := o.PathCost(a, b); ok {
			t.Fatalf("route %d→%d crosses the cut", a, b)
		}
		if s := o.routeCache[a]; s != nil && s == before {
			recycled++ // the single slot was reused for a new source
		}
		within := (a + 17) % (peers / 2)
		if a >= peers/2 {
			within += peers / 2
		}
		got, gok := o.Route(a, within)
		want, wok := oracleRoute(o, a, within)
		if pathString(got, gok) != pathString(want, wok) {
			t.Fatalf("route %d→%d from a recycled table: %s != oracle %s",
				a, within, pathString(got, gok), pathString(want, wok))
		}
	}
	if recycled == 0 {
		t.Fatal("no miss recycled the evicted table; the test exercised nothing")
	}
}

// TestPathCostAllocs pins the point of PathCost: a cost query on a cached
// source allocates nothing, and neither does a miss on a full cache — the
// evicted table's arrays and the overlay's one heap are reused.
func TestPathCostAllocs(t *testing.T) {
	const peers = 400
	o := cacheOverlay(t, peers, 2)
	// For each of ten sources, the farthest reachable peer: outside the
	// truncated search's ball, so every query below runs a full Dijkstra.
	var srcs, fars [10]int
	for i := range srcs {
		srcs[i] = i * 37
		var rt routeTable
		o.dijkstra(srcs[i], &rt)
		for p, d := range rt.dist {
			if !math.IsInf(d, 1) && d > rt.dist[fars[i]] {
				fars[i] = p
			}
		}
	}
	o.PathCost(srcs[0], fars[0])
	if avg := testing.AllocsPerRun(100, func() { o.PathCost(srcs[0], fars[0]) }); avg != 0 {
		t.Fatalf("PathCost on a cached source allocates %.2f objects, want 0", avg)
	}

	i, evictions := 1, 0
	query := func() {
		a := srcs[i%len(srcs)]
		if _, _, ok := o.PathCost(a, fars[i%len(srcs)]); !ok {
			t.Fatalf("no route from %d to its farthest peer", a)
		}
		if o.lruHead.src == a {
			evictions++
		}
		i++
	}
	for n := 0; n < 3; n++ { // fill both slots, size the heap, then settle
		query()
	}
	evictions = 0
	if avg := testing.AllocsPerRun(200, query); avg != 0 {
		t.Fatalf("PathCost miss on a full K=2 cache allocates %.2f objects, want 0", avg)
	}
	if evictions < 200 {
		t.Fatalf("only %d of 200 queries evicted; the far destinations are not far", evictions)
	}
	if len(o.routeCache) != 2 {
		t.Fatalf("K=2 cache holds %d tables", len(o.routeCache))
	}
}
