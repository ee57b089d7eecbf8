package experiment

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/registry"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// CapacityConfig parameterizes a single-machine capacity sweep: how far the
// frozen-CSR topology core, the compact overlay under a bounded route cache,
// and the sorted-ring discovery plane stretch before memory or wall-clock
// becomes the binding constraint. Unlike the protocol figures a sweep reports
// real resource cost, so its wall-clock and heap columns are
// machine-dependent; the structural columns (links, simulated route
// latency/hops, lookup successes) are seed-deterministic at any worker count.
// The named sweeps (scale100k, scale1m, the CI slice) differ only in data.
type CapacityConfig struct {
	// Name labels the sweep in its table titles and CSV files.
	Name string
	Seed int64
	// Topo is the (IP nodes, overlay peers) grid. Every point builds the IP
	// graph with the frozen CSR representation and the overlay in compact
	// mode (no peer-pair latency matrix), then runs a route sweep.
	Topo []CapacityTopo
	// RouteCacheK bounds the overlay route cache in every topo cell; 0 keeps
	// the overlay's default byte budget. Set far below RouteSources the sweep
	// continuously evicts — the steady-state memory of the route plane is K
	// tables regardless of how many sources probe, and what is measured is
	// the LRU + truncated-search path.
	RouteCacheK int
	// RouteSources / RoutesPerSource size the route sweep per topo cell. Each
	// distinct source pays one full Dijkstra (then caches).
	RouteSources, RoutesPerSource int
	// DiscoveryPeers is the DHT population of the discovery cell's one ring.
	DiscoveryPeers int
	// Functions / ProvidersPerFn / Lookups size the discovery workload.
	Functions, ProvidersPerFn, Lookups int
	// Parallel is the worker count for the cells; <= 1 runs them serially.
	Parallel int
}

// CapacityTopo is one (IP nodes, overlay peers) grid point.
type CapacityTopo struct {
	IPNodes, Peers int
}

// DefaultScale100kConfig is the 100k sweep: up to 100,000 IP nodes and
// 10,000 overlay peers — 10x the paper's §6.1 dimensions — plus a 10,000-peer
// discovery ring.
func DefaultScale100kConfig() CapacityConfig {
	return CapacityConfig{
		Name: "scale100k",
		Seed: 1,
		Topo: []CapacityTopo{
			{IPNodes: 10000, Peers: 1000},
			{IPNodes: 30000, Peers: 3000},
			{IPNodes: 100000, Peers: 10000},
		},
		RouteSources:    64,
		RoutesPerSource: 4,
		DiscoveryPeers:  10000,
		Functions:       200,
		ProvidersPerFn:  3,
		Lookups:         200,
	}
}

// DefaultScale1mConfig is the headline sweep: up to 1,000,000 IP nodes and
// 100,000 overlay peers — 100x the paper's §6.1 dimensions — under a
// deliberately tiny route-cache bound, plus a 100,000-peer discovery ring.
func DefaultScale1mConfig() CapacityConfig {
	return CapacityConfig{
		Name: "scale1m",
		Seed: 1,
		Topo: []CapacityTopo{
			{IPNodes: 300000, Peers: 30000},
			{IPNodes: 1000000, Peers: 100000},
		},
		RouteCacheK:     8,
		RouteSources:    64,
		RoutesPerSource: 4,
		DiscoveryPeers:  100000,
		Functions:       300,
		ProvidersPerFn:  3,
		Lookups:         300,
	}
}

// Scale1mSliceConfig is the CI-sized cell of the scale1m sweep: one topology
// point and a 10,000-peer discovery ring, small enough for a test gate but
// large enough that the route cache evicts (RouteSources > RouteCacheK). The
// scale1m gate in scripts/ci.sh runs it through TestScale1mSlice* with a
// build-time ceiling and a live-heap budget.
func Scale1mSliceConfig() CapacityConfig {
	return CapacityConfig{
		Name:            "scale1m",
		Seed:            1,
		Topo:            []CapacityTopo{{IPNodes: 100000, Peers: 10000}},
		RouteCacheK:     8,
		RouteSources:    32,
		RoutesPerSource: 4,
		DiscoveryPeers:  10000,
		Functions:       120,
		ProvidersPerFn:  3,
		Lookups:         200,
	}
}

// CapacityTopoPoint is one topology cell's result.
type CapacityTopoPoint struct {
	IPNodes, Peers int
	Links          int
	GenMS          float64 // wall-clock: power-law generation + CSR freeze
	OverlayMS      float64 // wall-clock: compact overlay build
	RouteMS        float64 // wall-clock: whole route sweep, evictions included
	HeapMB         float64 // live-heap delta across graph + overlay build
	RouteAvgMS     float64 // simulated ms, deterministic
	RouteAvgHops   float64 // deterministic
	RouteOK        int     // deterministic
}

// CapacityDiscPoint is the discovery cell's result.
type CapacityDiscPoint struct {
	Peers      int
	BuildMS    float64 // wall-clock: the sorted-ring build, O(n·log n)
	HeapMB     float64 // live-heap delta across node creation + ring build
	RegisterMS float64 // wall-clock: puts + simulated delivery
	LookupMS   float64 // wall-clock: gets + simulated delivery
	LookupOK   int     // deterministic
	AvgHops    float64 // deterministic
}

// CapacityResult is the full sweep.
type CapacityResult struct {
	Topo      []CapacityTopoPoint
	Discovery CapacityDiscPoint
	TopoTable *metrics.Table
	DiscTable *metrics.Table
}

// Capacity runs a capacity sweep: the topology grid points and the discovery
// ring, all as independent cells under the parallel runner.
func Capacity(cfg CapacityConfig) CapacityResult {
	nt := len(cfg.Topo)
	out := CapacityResult{Topo: make([]CapacityTopoPoint, nt)}
	runCells(nt+1, cfg.Parallel, nil, func(i int, _ obs.Tracer) {
		if i < nt {
			out.Topo[i] = topoCell(cfg, cfg.Topo[i])
		} else {
			out.Discovery = discoveryCell(cfg)
		}
	})

	out.TopoTable = metrics.NewTable(
		fmt.Sprintf("%s: topology grid (compact overlay, route cache K=%d)", cfg.Name, cfg.RouteCacheK),
		"ip nodes", "peers", "links", "gen ms", "overlay ms", "sweep ms", "heap MB", "route ms", "route hops", "routes ok")
	for _, p := range out.Topo {
		out.TopoTable.AddRow(p.IPNodes, p.Peers, p.Links, p.GenMS, p.OverlayMS, p.RouteMS, p.HeapMB, p.RouteAvgMS, p.RouteAvgHops, p.RouteOK)
	}
	out.DiscTable = metrics.NewTable(
		fmt.Sprintf("%s: discovery, one ring of %d DHT peers (sorted-ring build)", cfg.Name, cfg.DiscoveryPeers),
		"build ms", "heap MB", "register ms", "lookup ms", "lookups ok", "avg hops")
	d := out.Discovery
	out.DiscTable.AddRow(d.BuildMS, d.HeapMB, d.RegisterMS, d.LookupMS, d.LookupOK, d.AvgHops)
	return out
}

func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDeltaMB returns the live-heap growth since before, clamped at zero:
// when a sibling cell's garbage is collected between the two measurements the
// delta can go negative, which would wrap the unsigned subtraction into a
// figure that fails every budget.
func heapDeltaMB(before uint64) float64 {
	after := liveHeapBytes()
	if after < before {
		return 0
	}
	return float64(after-before) / (1 << 20)
}

// sinceMS is the wall-clock time since start in ms, to the microsecond.
func sinceMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// topoCell builds one grid point and sweeps routes over it. The overlay is
// built in compact mode: the O(peers^2) latency matrix alone would cost
// ~800 MB at 10,000 peers, an order of magnitude over the whole-cell budget.
// With RouteSources above RouteCacheK the sweep spends most of its time in the
// post-eviction regime: near destinations on the truncated fast path, far
// ones paying a full Dijkstra into a recycled LRU slot.
func topoCell(cfg CapacityConfig, pt CapacityTopo) CapacityTopoPoint {
	rng := newRng(cfg.Seed + int64(pt.IPNodes))
	heapBefore := liveHeapBytes()

	start := time.Now()
	g := topology.GeneratePowerLaw(pt.IPNodes, 2, 2, 30, rng)
	genMS := sinceMS(start)

	start = time.Now()
	ov := topology.BuildOverlay(g, topology.OverlayConfig{
		NumPeers: pt.Peers, Degree: 4, Compact: true,
		RouteCacheSize: cfg.RouteCacheK,
	}, rng)
	overlayMS := sinceMS(start)
	heapMB := heapDeltaMB(heapBefore)

	var lat, hops metrics.Sample
	start = time.Now()
	for s := 0; s < cfg.RouteSources; s++ {
		src := rng.Intn(pt.Peers)
		for k := 0; k < cfg.RoutesPerSource; k++ {
			dst := rng.Intn(pt.Peers)
			if path, ok := ov.Route(src, dst); ok {
				lat.Add(path.Latency)
				hops.Add(float64(len(path.Peers) - 1))
			}
		}
	}
	return CapacityTopoPoint{
		IPNodes:      pt.IPNodes,
		Peers:        pt.Peers,
		Links:        ov.NumLinks(),
		GenMS:        genMS,
		OverlayMS:    overlayMS,
		RouteMS:      sinceMS(start),
		HeapMB:       heapMB,
		RouteAvgMS:   lat.Mean(),
		RouteAvgHops: hops.Mean(),
		RouteOK:      lat.N(),
	}
}

// discoveryCell builds one ring of cfg.DiscoveryPeers DHT nodes with the
// sorted-ring constructor, registers a function catalog from random peers,
// then sweeps lookups from random peers.
func discoveryCell(cfg CapacityConfig) CapacityDiscPoint {
	netRng := newRng(cfg.Seed + 9000)
	pickRng := newRng(cfg.Seed + 9001)
	n := cfg.DiscoveryPeers

	heapBefore := liveHeapBytes()
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(5*time.Millisecond), netRng)
	nodes := make([]*dht.Node, n)
	for i := range nodes {
		nodes[i] = dht.New(nw.AddNode(p2p.NodeID(i)), nw.Alive)
	}

	start := time.Now()
	dht.Build(nodes)
	buildMS := sinceMS(start)
	heapMB := heapDeltaMB(heapBefore)

	start = time.Now()
	for f := 0; f < cfg.Functions; f++ {
		key := registry.FunctionKey(fmt.Sprintf("fn%d", f))
		for p := 0; p < cfg.ProvidersPerFn; p++ {
			src := pickRng.Intn(n)
			nodes[src].Put(key, fmt.Sprintf("p%d/fn%d", src, f), 96)
		}
	}
	sim.RunUntilIdle()
	registerMS := sinceMS(start)

	var hops metrics.Sample
	start = time.Now()
	for l := 0; l < cfg.Lookups; l++ {
		key := registry.FunctionKey(fmt.Sprintf("fn%d", pickRng.Intn(cfg.Functions)))
		nodes[pickRng.Intn(n)].Get(key, time.Second, func(items []any, h int, ok bool) {
			if ok && len(items) > 0 {
				hops.Add(float64(h))
			}
		})
	}
	sim.RunUntilIdle()

	return CapacityDiscPoint{
		Peers:      n,
		BuildMS:    buildMS,
		HeapMB:     heapMB,
		RegisterMS: registerMS,
		LookupMS:   sinceMS(start),
		LookupOK:   hops.N(),
		AvgHops:    hops.Mean(),
	}
}
