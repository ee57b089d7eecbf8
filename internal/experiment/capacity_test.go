package experiment

import (
	"fmt"
	"math"
	"testing"
)

// quick shrinks a named capacity sweep to unit-test size while keeping the
// structural properties the full run relies on: several grid points, compact
// overlays, a route cache that evicts when the sweep bounds it (sources > K),
// and a discovery ring deep enough for multi-hop lookups.
func quick(cfg CapacityConfig) CapacityConfig {
	cfg.Topo = []CapacityTopo{{IPNodes: 400, Peers: 60}, {IPNodes: 800, Peers: 120}}
	if cfg.RouteCacheK > 0 {
		cfg.RouteCacheK = 4
	}
	cfg.RouteSources = 16
	cfg.RoutesPerSource = 2
	cfg.DiscoveryPeers = 320
	cfg.Functions = 24
	cfg.ProvidersPerFn = 2
	cfg.Lookups = 60
	return cfg
}

// structuralString renders everything a capacity result reports that is not
// wall-clock or heap, for byte-exact comparison across runs and worker
// counts.
func structuralString(r CapacityResult) string {
	s := ""
	for _, p := range r.Topo {
		s += fmt.Sprintf("topo %d/%d links=%d lat=%.9f hops=%.9f ok=%d\n",
			p.IPNodes, p.Peers, p.Links, p.RouteAvgMS, p.RouteAvgHops, p.RouteOK)
	}
	return s + discRow(r.Discovery)
}

func discRow(d CapacityDiscPoint) string {
	return fmt.Sprintf("disc %d ok=%d hops=%.9f\n", d.Peers, d.LookupOK, d.AvgHops)
}

// quickStructural is what both named sweeps report at quick size (they share
// every dimension quick leaves alone but the route-cache bound, which changes
// cost, not routes). Recorded once at seed 1; a lookup's hops end at the first
// holder of the key on its route (lookups that go on to the root read 1.98).
const quickStructural = `topo 400/60 links=191 lat=53.164720029 hops=2.531250000 ok=32
topo 800/120 links=399 lat=61.786726208 hops=2.906250000 ok=32
disc 320 ok=60 hops=1.666666667
`

// Live-heap budgets of one topology and one discovery cell at slice size;
// every smaller cell must fit them too.
const (
	topoHeapBudgetMB = 64
	discHeapBudgetMB = 192
)

// checkHeap fails on a heap figure that is not a plausible number of MB. The
// delta is taken between two unsigned readings while sibling cells allocate
// and collect, so a wrapped subtraction shows up here as ~1.8e13.
func checkHeap(t *testing.T, what string, mb, budget float64) {
	t.Helper()
	if math.IsNaN(mb) || math.IsInf(mb, 0) || mb < 0 || mb > budget {
		t.Errorf("%s live heap %.1f MB outside [0, %v]", what, mb, budget)
	}
}

// TestCapacityStructuralColumns runs every named sweep at unit-test size,
// serially and with 8 workers: the seed-deterministic columns must equal the
// recorded rows byte for byte, every lookup must resolve, and the heap columns
// must be real figures inside the cell budgets.
func TestCapacityStructuralColumns(t *testing.T) {
	for _, named := range []func() CapacityConfig{DefaultScale100kConfig, DefaultScale1mConfig} {
		cfg := quick(named())
		t.Run(cfg.Name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				cfg.Parallel = workers
				res := Capacity(cfg)
				if got := structuralString(res); got != quickStructural {
					t.Errorf("structural columns at %d workers:\n%s\nwant\n%s", workers, got, quickStructural)
				}
				for _, p := range res.Topo {
					if p.Links == 0 || p.RouteOK == 0 {
						t.Errorf("topo %d/%d: links=%d routesOK=%d", p.IPNodes, p.Peers, p.Links, p.RouteOK)
					}
					checkHeap(t, fmt.Sprintf("parallel=%d topo %d/%d", workers, p.IPNodes, p.Peers), p.HeapMB, topoHeapBudgetMB)
				}
				if d := res.Discovery; d.LookupOK != cfg.Lookups {
					t.Errorf("resolved %d of %d lookups", d.LookupOK, cfg.Lookups)
				}
				checkHeap(t, fmt.Sprintf("parallel=%d discovery", workers), res.Discovery.HeapMB, discHeapBudgetMB)
			}
		})
	}
}

// TestScale1mSliceBudget is the CI capacity gate: the slice cell (100k IP
// nodes / 10k peers topology, 10k-peer discovery plane) must finish under
// generous wall-clock ceilings and a live-heap budget, with every lookup
// resolving. A wall-clock blowout here means superlinear construction crept
// back in (the precise 50× bound is TestBuildSpeedup's job); a heap blowout
// means a dense structure returned — the per-peer latency matrix, eager
// routing tables, or an unbounded route cache.
func TestScale1mSliceBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity slice")
	}
	cfg := Scale1mSliceConfig()
	res := Capacity(cfg)

	tp := res.Topo[0]
	if tp.GenMS+tp.OverlayMS > 120_000 {
		t.Errorf("topology build took %.0f ms, ceiling 120000", tp.GenMS+tp.OverlayMS)
	}
	checkHeap(t, "topology cell", tp.HeapMB, topoHeapBudgetMB)
	if tp.RouteOK == 0 {
		t.Error("route sweep resolved no routes")
	}

	dp := res.Discovery
	if dp.BuildMS > 60_000 {
		t.Errorf("ring build took %.0f ms, ceiling 60000", dp.BuildMS)
	}
	checkHeap(t, "discovery cell", dp.HeapMB, discHeapBudgetMB)
	if dp.LookupOK != cfg.Lookups {
		t.Errorf("resolved %d of %d lookups", dp.LookupOK, cfg.Lookups)
	}
	// The flat 10,000-peer ring's rows, recorded once at seed 1: the slice's
	// and the one the scale100k discovery table prints. A lookup stops at the
	// first of the key's five holders on its route; lookups that go on to the
	// root read 3.11 and 3.16.
	const slice, full = "disc 10000 ok=200 hops=2.680000000\n", "disc 10000 ok=200 hops=2.730000000\n"
	if got := discRow(dp); got != slice {
		t.Errorf("slice discovery row %q, want %q", got, slice)
	}
	if got := discRow(discoveryCell(DefaultScale100kConfig())); got != full {
		t.Errorf("scale100k discovery row %q, want %q", got, full)
	}
}

// TestScale1mSliceDeterministic reruns the slice and requires byte-identical
// structural columns — the rerun half of the CI gate.
func TestScale1mSliceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity slice")
	}
	a := Capacity(Scale1mSliceConfig())
	cfg := Scale1mSliceConfig()
	cfg.Parallel = 8
	b := Capacity(cfg)
	if structuralString(a) != structuralString(b) {
		t.Fatalf("slice not deterministic across reruns/worker counts:\n%s\nvs\n%s",
			structuralString(a), structuralString(b))
	}
}
