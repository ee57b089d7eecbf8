package topology

import (
	"math"
	"math/rand"
	"testing"
)

func testOverlay(t *testing.T, kind OverlayKind) *Overlay {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := GeneratePowerLaw(400, 2, 2, 30, rng)
	return BuildOverlay(g, OverlayConfig{
		NumPeers: 60,
		Kind:     kind,
		Degree:   4,
		CapMin:   1000,
		CapMax:   5000,
	}, rng)
}

func TestBuildOverlayAllKinds(t *testing.T) {
	for _, kind := range []OverlayKind{Mesh, PowerLawOverlay, RandomOverlay} {
		t.Run(kind.String(), func(t *testing.T) {
			o := testOverlay(t, kind)
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
	o := testOverlay(t, Mesh)
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
	o := testOverlay(t, Mesh)
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
	o := testOverlay(t, Mesh)
	p, ok := o.Route(7, 7)
	if !ok || p.Latency != 0 || len(p.Links) != 0 {
		t.Fatalf("self route = %+v ok=%v", p, ok)
	}
}

func TestBandwidthAllocRelease(t *testing.T) {
	o := testOverlay(t, Mesh)
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
	o := testOverlay(t, Mesh)
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
	o := testOverlay(t, Mesh)
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
