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
	// DiscoveryPeers is the DHT population for the discovery cells.
	DiscoveryPeers int
	// Shards lists the keyspace shard counts swept by the discovery cells.
	// Since the sorted-ring builder made construction O(n·log n), sharding
	// is no longer how build work is kept feasible — the sweep keeps it to
	// show that per-ring leaf/table state shrinks by ~S while lookups for
	// foreign keys pay only the cross-ring entry hop.
	Shards []int
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
// discovery plane at shard counts {1, 4, 16}.
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
		Shards:          []int{1, 4, 16},
		Functions:       200,
		ProvidersPerFn:  3,
		Lookups:         200,
	}
}

// DefaultScale1mConfig is the headline sweep: up to 1,000,000 IP nodes and
// 100,000 overlay peers — 100x the paper's §6.1 dimensions — under a
// deliberately tiny route-cache bound, plus a 100,000-peer discovery plane at
// shard counts {16, 64}.
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
		Shards:          []int{16, 64},
		Functions:       300,
		ProvidersPerFn:  3,
		Lookups:         300,
	}
}

// Scale1mSliceConfig is the CI-sized cell of the scale1m sweep: one topology
// point and one discovery point, small enough for a test gate but large
// enough that the route cache evicts (RouteSources > RouteCacheK) and the
// discovery plane spans many rings. The scale1m gate in scripts/ci.sh runs
// it through TestScale1mSlice* with a build-time ceiling and a live-heap
// budget.
func Scale1mSliceConfig() CapacityConfig {
	return CapacityConfig{
		Name:            "scale1m",
		Seed:            1,
		Topo:            []CapacityTopo{{IPNodes: 100000, Peers: 10000}},
		RouteCacheK:     8,
		RouteSources:    32,
		RoutesPerSource: 4,
		DiscoveryPeers:  10000,
		Shards:          []int{16},
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

// CapacityDiscPoint is one discovery cell's result.
type CapacityDiscPoint struct {
	Peers, Shards int
	BuildMS       float64 // wall-clock: S sorted-ring builds, O(n·log n) total
	HeapMB        float64 // live-heap delta across node creation + ring build
	RegisterMS    float64 // wall-clock: puts + simulated delivery
	LookupMS      float64 // wall-clock: gets + simulated delivery
	LookupOK      int     // deterministic
	AvgHops       float64 // deterministic
}

// CapacityResult is the full sweep.
type CapacityResult struct {
	Topo      []CapacityTopoPoint
	Discovery []CapacityDiscPoint
	TopoTable *metrics.Table
	DiscTable *metrics.Table
}

// Capacity runs a capacity sweep: topology grid points first, then the
// sharded-discovery grid, all as independent cells under the parallel runner.
func Capacity(cfg CapacityConfig) CapacityResult {
	nt := len(cfg.Topo)
	out := CapacityResult{
		Topo:      make([]CapacityTopoPoint, nt),
		Discovery: make([]CapacityDiscPoint, len(cfg.Shards)),
	}
	runCells(nt+len(cfg.Shards), cfg.Parallel, nil, func(i int, _ obs.Tracer) {
		if i < nt {
			out.Topo[i] = topoCell(cfg, cfg.Topo[i])
		} else {
			out.Discovery[i-nt] = discoveryCell(cfg, cfg.Shards[i-nt])
		}
	})

	out.TopoTable = metrics.NewTable(
		fmt.Sprintf("%s: topology grid (compact overlay, route cache K=%d)", cfg.Name, cfg.RouteCacheK),
		"ip nodes", "peers", "links", "gen ms", "overlay ms", "sweep ms", "heap MB", "route ms", "route hops", "routes ok")
	for _, p := range out.Topo {
		out.TopoTable.AddRow(p.IPNodes, p.Peers, p.Links, p.GenMS, p.OverlayMS, p.RouteMS, p.HeapMB, p.RouteAvgMS, p.RouteAvgHops, p.RouteOK)
	}
	out.DiscTable = metrics.NewTable(
		fmt.Sprintf("%s: sharded discovery, %d DHT peers (sorted-ring build)", cfg.Name, cfg.DiscoveryPeers),
		"shards", "build ms", "heap MB", "register ms", "lookup ms", "lookups ok", "avg hops")
	for _, p := range out.Discovery {
		out.DiscTable.AddRow(p.Shards, p.BuildMS, p.HeapMB, p.RegisterMS, p.LookupMS, p.LookupOK, p.AvgHops)
	}
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

// discoveryCell builds cfg.DiscoveryPeers DHT nodes partitioned into `shards`
// independent rings by the registry's shard plan, each built with the
// sorted-ring constructor, registers a function catalog with the plan's
// key-hash homing (local put on the home ring, PutVia through an entry member
// otherwise), then sweeps lookups from random peers. The success count and
// hop totals must not depend on the shard count — only the build and
// messaging cost do.
func discoveryCell(cfg CapacityConfig, shards int) CapacityDiscPoint {
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
	plan := registry.NewShardPlan(n, shards)

	start := time.Now()
	for s := 0; s < plan.NumShards; s++ {
		ring := make([]*dht.Node, len(plan.Members[s]))
		for j, id := range plan.Members[s] {
			ring[j] = nodes[int(id)]
		}
		dht.Build(ring)
	}
	buildMS := sinceMS(start)
	heapMB := heapDeltaMB(heapBefore)

	start = time.Now()
	for f := 0; f < cfg.Functions; f++ {
		key := registry.FunctionKey(fmt.Sprintf("fn%d", f))
		home := plan.Home(key)
		for p := 0; p < cfg.ProvidersPerFn; p++ {
			src := pickRng.Intn(n)
			item := fmt.Sprintf("p%d/fn%d", src, f)
			if plan.Of(p2p.NodeID(src)) == home {
				nodes[src].Put(key, item, 96)
			} else {
				nodes[src].PutVia(plan.Entries(key)[0], key, item, 96)
			}
		}
	}
	sim.RunUntilIdle()
	registerMS := sinceMS(start)

	var hops metrics.Sample
	start = time.Now()
	for l := 0; l < cfg.Lookups; l++ {
		key := registry.FunctionKey(fmt.Sprintf("fn%d", pickRng.Intn(cfg.Functions)))
		src := pickRng.Intn(n)
		collect := func(items []any, h int, ok bool) {
			if ok && len(items) > 0 {
				hops.Add(float64(h))
			}
		}
		if plan.Of(p2p.NodeID(src)) == plan.Home(key) {
			nodes[src].Get(key, time.Second, collect)
		} else {
			nodes[src].GetVia(plan.Entries(key), key, 0, time.Second, collect)
		}
	}
	sim.RunUntilIdle()

	return CapacityDiscPoint{
		Peers:      n,
		Shards:     plan.NumShards,
		BuildMS:    buildMS,
		HeapMB:     heapMB,
		RegisterMS: registerMS,
		LookupMS:   sinceMS(start),
		LookupOK:   hops.N(),
		AvgHops:    hops.Mean(),
	}
}
