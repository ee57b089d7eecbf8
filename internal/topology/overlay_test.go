package topology

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func testOverlay(t *testing.T, compact bool) *Overlay {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := GeneratePowerLaw(400, 2, 2, 30, rng)
	return BuildOverlay(g, OverlayConfig{
		NumPeers: 60,
		Degree:   4,
		CapMin:   1000,
		CapMax:   5000,
		Compact:  compact,
	}, rng)
}

// TestBuildOverlayAllKinds: both mesh builders — the one over the pairwise
// latency matrix and the compact one without it — place every peer on its
// own IP node and link them.
func TestBuildOverlayAllKinds(t *testing.T) {
	for _, kind := range []struct {
		name    string
		compact bool
	}{{"mesh", false}, {"compact", true}} {
		t.Run(kind.name, func(t *testing.T) {
			o := testOverlay(t, kind.compact)
			if o.N() != 60 {
				t.Fatalf("N=%d", o.N())
			}
			if o.NumLinks() == 0 {
				t.Fatal("no overlay links")
			}
			// Every peer maps to a distinct IP node.
			seen := make(map[int]bool)
			for p := 0; p < o.N(); p++ {
				ip := o.PeerIP(p)
				if seen[ip] {
					t.Fatalf("IP node %d hosts two peers", ip)
				}
				seen[ip] = true
			}
		})
	}
}

func TestOverlayLatencySymmetricNonNegative(t *testing.T) {
	o := testOverlay(t, false)
	for a := 0; a < o.N(); a++ {
		if o.Latency(a, a) != 0 {
			t.Fatalf("self latency nonzero for %d", a)
		}
		for b := a + 1; b < o.N(); b++ {
			l := o.Latency(a, b)
			if l <= 0 || math.IsInf(l, 0) || math.IsNaN(l) {
				t.Fatalf("latency(%d,%d)=%v", a, b, l)
			}
			if math.Abs(l-o.Latency(b, a)) > 1e-9 {
				t.Fatalf("latency asymmetric between %d and %d", a, b)
			}
		}
	}
}

func TestOverlayRoute(t *testing.T) {
	o := testOverlay(t, false)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Intn(o.N()), rng.Intn(o.N())
		p, ok := o.Route(a, b)
		if !ok {
			t.Fatalf("no route %d->%d in connected mesh", a, b)
		}
		if p.Peers[0] != a || p.Peers[len(p.Peers)-1] != b {
			t.Fatalf("route endpoints wrong: %v", p.Peers)
		}
		if len(p.Links) != len(p.Peers)-1 {
			t.Fatalf("links/peers mismatch: %d links, %d peers", len(p.Links), len(p.Peers))
		}
		// Route over overlay links can never beat the direct IP shortest path.
		if a != b && p.Latency+1e-9 < o.Latency(a, b) {
			t.Fatalf("overlay route latency %v below IP shortest path %v", p.Latency, o.Latency(a, b))
		}
	}
}

func TestOverlayRouteSelf(t *testing.T) {
	o := testOverlay(t, false)
	p, ok := o.Route(7, 7)
	if !ok || p.Latency != 0 || len(p.Links) != 0 {
		t.Fatalf("self route = %+v ok=%v", p, ok)
	}
}

func TestBandwidthAllocRelease(t *testing.T) {
	o := testOverlay(t, false)
	p, ok := o.Route(0, o.N()-1)
	if !ok {
		t.Fatal("no route")
	}
	before := o.AvailBandwidth(p)
	if before < 1000 {
		t.Fatalf("bottleneck bandwidth %v below configured minimum", before)
	}
	if !o.AllocBandwidth(0, o.N()-1, 500) {
		t.Fatal("allocation within capacity should succeed")
	}
	after := o.AvailBandwidth(p)
	if after > before-500+1e-9 {
		t.Fatalf("bandwidth not deducted: before=%v after=%v", before, after)
	}
	o.ReleaseBandwidth(0, o.N()-1, 500)
	if math.Abs(o.AvailBandwidth(p)-before) > 1e-9 {
		t.Fatal("release did not restore bandwidth")
	}
}

func TestBandwidthAllocAllOrNothing(t *testing.T) {
	o := testOverlay(t, false)
	p, ok := o.Route(0, o.N()-1)
	if !ok {
		t.Fatal("no route")
	}
	avail := o.AvailBandwidth(p)
	if o.AllocBandwidth(0, o.N()-1, avail+1) {
		t.Fatal("over-allocation must fail")
	}
	if math.Abs(o.AvailBandwidth(p)-avail) > 1e-9 {
		t.Fatal("failed allocation must not change availability")
	}
}

func TestReleaseClampsAtCapacity(t *testing.T) {
	o := testOverlay(t, false)
	p, _ := o.Route(0, 1)
	o.ReleaseBandwidth(0, 1, 1e9)
	for _, idx := range p.Links {
		if o.AvailBandwidth(Path{Links: []int{idx}}) > o.LinkCapacity(idx)+1e-9 {
			t.Fatal("availability exceeded capacity after over-release")
		}
	}
}

func TestWideAreaLatencies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lat := WideAreaLatencies(102, rng)
	if len(lat) != 102 {
		t.Fatalf("len=%d", len(lat))
	}
	var min, max float64 = math.Inf(1), 0
	for i := 0; i < 102; i++ {
		if lat[i][i] != 0 {
			t.Fatal("self latency nonzero")
		}
		for j := i + 1; j < 102; j++ {
			l := lat[i][j]
			if l != lat[j][i] {
				t.Fatal("asymmetric wide-area latency")
			}
			if l <= 0 {
				t.Fatalf("nonpositive latency %v", l)
			}
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
	}
	// There must be both near (intra-cluster) and far (transatlantic) pairs.
	if min > 15 {
		t.Fatalf("minimum latency %v too high for intra-cluster pairs", min)
	}
	if max < 60 {
		t.Fatalf("maximum latency %v too low for transatlantic pairs", max)
	}
}

// sortedNearest is the selection nearestInRow replaced, kept as its oracle:
// order every other index by row latency and take the first k. The sort is
// stable, which pins the tie rule — equal latencies in index order; the
// unstable sort.Slice this descends from never had to break a tie, because
// two distinct shortest-path sums from one source do not collide on
// generated graphs (TestNearestInRowMatchesSort checks that too).
func sortedNearest(row []float64, skip, k int) []int {
	var order []int
	for v := range row {
		if v != skip {
			order = append(order, v)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return row[order[i]] < row[order[j]] })
	return order[:min(k, len(order))]
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNearestInRowMatchesSort: bounded insertion selects what the full sort
// selects, in the same order — on every row of the seed-1..5 paper-shape
// overlays (where it also asserts the rows hold no tie the two sorts could
// have resolved differently), and on rows built to tie: duplicates across the
// cut, all-equal, +Inf tails, k past the row.
func TestNearestInRowMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := GeneratePowerLaw(3000, 2, 2, 30, rng)
		o := BuildOverlay(g, OverlayConfig{NumPeers: 300, Degree: 4}, rng)
		buf := make([]int, 0, 4)
		next, linked := 0, make(map[uint64]bool) // replay of the mesh build's link order
		for u, row := range o.lat {
			want := sortedNearest(row, u, 5)
			for i := 1; i < len(want); i++ {
				if row[want[i-1]] == row[want[i]] {
					t.Fatalf("seed %d row %d: peers %d and %d tie at %v", seed, u, want[i-1], want[i], row[want[i]])
				}
			}
			if buf = nearestInRow(row, u, 4, buf); !sameInts(buf, want[:4]) {
				t.Fatalf("seed %d row %d: insertion %v, sort %v", seed, u, buf, want[:4])
			}
			for _, v := range want[:4] {
				if linked[pairKey(u, v)] {
					continue
				}
				linked[pairKey(u, v)] = true
				if l := o.links[next]; l.u != u || l.v != v {
					t.Fatalf("seed %d link %d: built %d-%d, sort oracle adds %d-%d", seed, next, l.u, l.v, u, v)
				}
				next++
			}
		}
		if next != o.NumLinks() {
			t.Fatalf("seed %d: overlay has %d links, sort oracle adds %d", seed, o.NumLinks(), next)
		}
	}
	inf := math.Inf(1)
	for _, c := range []struct {
		row     []float64
		skip, k int
	}{
		{[]float64{0, 3, 1, 3, 1, 3, 2}, 0, 4},       // ties inside and across the cut
		{[]float64{5, 5, 5, 5, 5, 5}, 2, 3},          // all equal: index order
		{[]float64{7, 1, 7, 1, 7, 1}, 5, 4},          // skip one of the tied minima
		{[]float64{4, inf, 2, inf, inf, 0}, 5, 4},    // unreachable peers fill the tail
		{[]float64{inf, inf, inf}, 1, 4},             // k past the row, nothing reachable
		{[]float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, 8, 3}, // descending: every entry displaces
		{[]float64{0}, 0, 4},                         // a lone peer has no neighbors
		{[]float64{2, 1}, 2, 1},                      // skip outside the row (AddPeer's shape)
	} {
		got, want := nearestInRow(c.row, c.skip, c.k, nil), sortedNearest(c.row, c.skip, c.k)
		if !sameInts(got, want) {
			t.Errorf("row %v skip %d k %d: insertion %v, sort %v", c.row, c.skip, c.k, got, want)
		}
	}
}

// TestAddPeerLinksNearest: the newcomer's links are the sort oracle's picks
// over its latency row, in that order, with the row's latencies.
func TestAddPeerLinksNearest(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := GeneratePowerLaw(600, 2, 2, 30, rng)
		o := BuildOverlay(g, OverlayConfig{NumPeers: 80, Degree: 4}, rng)
		hosts := make(map[int]bool)
		for p := 0; p < o.N(); p++ {
			hosts[o.PeerIP(p)] = true
		}
		ip := 0
		for hosts[ip] {
			ip++
		}
		before := o.NumLinks()
		p := o.AddPeer(g, ip, 3, rng)
		want := sortedNearest(o.lat[p], p, 3)
		if got := o.NumLinks() - before; got != len(want) {
			t.Fatalf("seed %d: AddPeer added %d links, want %d", seed, got, len(want))
		}
		for i, v := range want {
			l := o.links[before+i]
			if l.u != p || l.v != v || l.latency != o.lat[p][v] {
				t.Fatalf("seed %d link %d: got %d-%d @%v, want %d-%d @%v", seed, i, l.u, l.v, l.latency, p, v, o.lat[p][v])
			}
		}
	}
}
