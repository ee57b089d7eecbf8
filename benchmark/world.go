package main

// world.go is the only file of the benchmark that binds to repro/internal.
// It uses a deliberately narrow surface (listed in README.md) and none of the
// ROADMAP's delete-or-justify knobs, so that pass can remove them without
// breaking the benchmark. Every layer is measured from outside: by timing
// calls into its exported functions, reading its exported counters at the
// same boundaries, and charging a CPU profile of the run to packages.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// roundResult is what one build-and-run of a cell measured. The fields from
// Attempted to FedAborts are on the virtual clock: for a given cell and seed
// they repeat exactly, traced or not, and Digest is their fingerprint.
type roundResult struct {
	SetupS     float64 // wall: world build until the first arrival could fire
	RunS       float64 // wall: first Step to the horizon sentinel
	PeakHeapMB float64 // max live heap over setup + run, sampled every 10 ms
	Mallocs    uint64  // over the run
	AllocBytes uint64
	GCCycles   uint32

	Attempted    int // operations issued
	Ok           int
	Hung         int // never called back although the source stayed up: a bug
	SourceKilled int // never called back because churn took the source down
	SkippedDead  int // arrivals whose source was already down; not issued
	Latencies    []time.Duration
	Events       int64
	Msgs         int64
	Bytes        int64
	Delivered    int64
	ByLayer      map[string]int64 // messages by type prefix (dht, bcp, rec, fed)
	Orphans      int              // alive peers still holding reservations after the federation drain
	Recovery     recovery.Stats
	FedPrepares  int64
	FedCommits   int64
	FedAborts    int64
	Digest       string

	Spans       []wallSpan
	Layer       map[string]float64 // per-layer metrics; traced rounds only
	Violations  []string           // trace-invariant violations; traced rounds only
	LostInCrash int                // probes the trace cannot account for under churn; traced rounds only
}

// wallSpan is one wall-clock span the driver recorded around its own call
// into a layer. Spans are kept in memory and written out when the benchmark
// ends.
type wallSpan struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

type spanLog struct {
	t0    time.Time
	spans []wallSpan
}

func (l *spanLog) time(name, parent string, fn func()) float64 {
	start := time.Since(l.t0)
	fn()
	end := time.Since(l.t0)
	l.spans = append(l.spans, wallSpan{name, parent, start.Seconds(), end.Seconds()})
	return (end - start).Seconds()
}

// heapSampler tracks the peak of the runtime's live-heap gauge (bytes marked
// by the last GC cycle) from its own goroutine.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn%d", i)
	}
	return out
}

// runCell builds the cell's world, schedules its arrivals, churn and
// teardowns, and drives the event loop to the horizon. A traced round does
// the same work with tracing, counters, histograms, a CPU profile and
// per-step queue sampling switched on, and fills Layer.
//
// Two seeds, as in a database benchmark with a pinned dataset and a seeded
// query stream: worldSeed pins the deployment, traffic generates what the
// program is asked to do (requests, arrival instants, lookups, routes).
func runCell(c cell, traffic int64, traced bool) (roundResult, error) {
	runtime.GC()
	if c.Gets > 0 {
		return runScale(c, traffic, traced)
	}
	return runComposition(c, traffic, traced)
}

// worldSeed builds every round of every run, whatever -seed says: topology,
// overlay, component placement and the simulator's own randomness are the
// benchmark's pinned dataset. Drawn from -seed instead, one hot function's
// replica count moved flash's ok_share by ±10 % between seeds.
const worldSeed = 1

// measured runs fn — the run phase — between two memory readings and, when
// traced, under a CPU profile, and returns the decoded profile's attribution.
func (r *roundResult) measured(log *spanLog, traced bool, fn func()) (map[string]float64, error) {
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.RunS = log.time("run", "", fn)
	runtime.ReadMemStats(&m1)
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.GCCycles = m1.NumGC - m0.NumGC
	if !traced {
		return nil, nil
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	return attribute(samples), nil
}

// op is one scheduled composition request and what became of it.
type op struct {
	req    *service.Request
	at     time.Duration // scheduled arrival, on the virtual clock
	issued bool
	done   bool
}

func runComposition(c cell, traffic int64, traced bool) (roundResult, error) {
	r := roundResult{}
	opts := cluster.Options{
		Seed: worldSeed, IPNodes: c.IPNodes, Peers: c.Peers,
		Catalog: catalog(c.Functions),
		BCP:     bcp.DefaultConfig(),
	}
	opts.Capacity[qos.CPU], opts.Capacity[qos.Memory] = c.CPU, c.Mem
	if c.Load {
		opts.Load = &cluster.LoadOptions{
			Model: qos.LoadModel{Base: 20 * time.Millisecond, Cap: 0.95},
			Aware: true, Shed: 0.8,
		}
	}
	if c.Recovery {
		rc := recovery.DefaultConfig()
		opts.Recovery = &rc
	}
	if c.Domains != "" {
		spec, err := federation.ParseSpec(c.Domains)
		if err != nil {
			return r, fmt.Errorf("%s: %w", c.Name, err)
		}
		opts.Domains = spec
	}
	var scn *workload.Scenario
	if s := c.scenario(); s != "" {
		var err error
		if scn, err = workload.ParseScenario(s); err != nil {
			return r, fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	var tr *tracing
	if traced {
		tr = newTracing()
		opts.Trace, opts.Obs, opts.Metrics = tr.sink, tr.counters, tr.hist
	}

	log := &spanLog{t0: time.Now()}
	heap := startHeapSampler()
	var cl *cluster.Cluster
	r.SetupS = log.time("cluster.new", "", func() { cl = cluster.New(opts) })
	clusterHeapMB := 0.0
	var built obs.Counters // what the build itself counted: registration traffic
	if traced {
		clusterHeapMB = liveHeapMB()
		built = tr.counters.Totals()
	}

	// Open loop on the virtual clock: every arrival is drawn from the seed
	// and put on the event queue before the first event runs, so the
	// schedule cannot depend on how earlier requests fared, and latency is
	// timed from the scheduled instant. The generator is never late.
	sim := cl.Sim
	origin := sim.Now()
	horizon := c.Window + c.Tail
	if cl.Fed != nil {
		horizon += cl.Fed.Cfg.Drain()
	}
	var (
		ops       []*op
		commitLat []time.Duration
		lastFail  = make(map[p2p.NodeID]time.Duration)
	)
	issue := func(o *op) {
		if !cl.Net.Alive(o.req.Source) {
			r.SkippedDead++
			return
		}
		o.issued = true
		r.Attempted++
		finish := func(ok bool) {
			o.done = true
			if ok {
				r.Ok++
				r.Latencies = append(r.Latencies, sim.Now()-origin-o.at)
			}
		}
		p := cl.Peers[int(o.req.Source)]
		if p.Fed != nil {
			p.Fed.Compose(o.req, func(res federation.Result) {
				finish(res.Ok)
				if res.Ok && res.Domains > 1 {
					commitLat = append(commitLat, res.CommitLatency)
				}
			})
			return
		}
		p.Engine.Compose(o.req, func(res bcp.Result) {
			finish(res.Ok)
			switch {
			case !res.Ok:
			case c.Recovery:
				p.Recovery.Establish(o.req, res)
			case c.Life > 0:
				sim.Schedule(c.Life, func() { p.Engine.Teardown(res.Best) })
			}
		})
	}
	generateS := log.time("workload.generate", "", func() {
		gen := workload.NewGenerator(workload.Config{
			Catalog: opts.Catalog, Peers: c.Peers,
			MinFuncs: 2, MaxFuncs: 4, Budget: c.Budget,
			DAGProb: 0.2, CommuteProb: 0.2,
			DelayReqMin: 500, DelayReqMax: 2000,
			Scenario: scn,
		}, rand.New(rand.NewSource(traffic)))
		arrivals := rand.New(rand.NewSource(traffic + 1))
		for i := 0; i < c.Requests; i++ {
			at := time.Duration(arrivals.Float64() * float64(c.Window))
			if scn != nil && arrivals.Float64()*scn.MaxRateMult(opts.Catalog) > scn.RateMult(at, opts.Catalog) {
				continue // thinned: the accepted density follows the flash curve
			}
			o := &op{req: gen.NextAt(at), at: at}
			ops = append(ops, o)
			sim.Schedule(at, func() { issue(o) })
		}
	})
	if c.ChurnEvery > 0 {
		// No tick in the last ChurnEvery before the horizon, so every
		// failure is detected and repaired (or given up on) inside the run.
		for at := c.ChurnEvery; at <= horizon-c.ChurnEvery; at += c.ChurnEvery {
			sim.Schedule(at, func() {
				for _, id := range cl.FailFraction(c.ChurnFrac) {
					lastFail[id] = sim.Now()
					sim.Schedule(c.ChurnDown, func() { cl.Net.Recover(id) })
				}
			})
		}
	}

	// The horizon is a sentinel event, so the loop counts events with Step
	// and needs nothing from simnet beyond Schedule and Step.
	atHorizon := false
	sim.Schedule(horizon, func() { atHorizon = true })
	peakQueue := 0
	shares, err := r.measured(log, traced, func() {
		for !atHorizon && sim.Step() {
			r.Events++
			if q := sim.Pending(); traced && q > peakQueue {
				peakQueue = q
			}
		}
	})
	r.PeakHeapMB = heap.peakMB()
	if err != nil {
		return r, err
	}

	for _, o := range ops {
		switch {
		case !o.issued || o.done:
		case killedSince(lastFail, o.req.Source, origin+o.at):
			r.SourceKilled++
		default:
			r.Hung++
		}
	}
	r.netStats(cl.Net.Stats())
	for _, p := range cl.Peers {
		if p.Recovery != nil {
			s := p.Recovery.Stats()
			r.Recovery.FailuresDetected += s.FailuresDetected
			r.Recovery.Switchovers += s.Switchovers
			r.Recovery.Reactives += s.Reactives
			r.Recovery.Dead += s.Dead
		}
	}
	if cl.Fed != nil {
		led := cl.Fed.TotalLedger()
		r.FedPrepares, r.FedCommits, r.FedAborts = led.Prepares, led.Commits, led.Aborts+led.Expires
		for i, p := range cl.Peers {
			if cl.Net.Alive(p2p.NodeID(i)) && (p.Ledger.HardAllocated() != (qos.Resources{}) ||
				p.Ledger.SoftAllocated() != (qos.Resources{}) || p.Engine.Held() > 0) {
				r.Orphans++
			}
		}
	}
	r.Digest = r.digest()
	r.Spans = log.spans
	if !traced {
		return r, nil
	}

	// Everything below is the traced round's attribution.
	checkS, spanS, phases, violations, err := tr.analyse(log)
	if err != nil {
		return r, err
	}
	for _, v := range violations {
		// A crashed peer cannot report the probes it was holding, and the
		// checker excuses only probes lost on the wire, so under churn an
		// unresolved probe is counted, not failed on.
		if c.ChurnFrac > 0 && v.Name == obs.VioProbeConservation {
			r.LostInCrash++
			continue
		}
		r.Violations = append(r.Violations, v.String())
	}

	// Build-phase spans: cluster.New is one opaque call, so the three build
	// layers are timed by calling them standalone at the cell's dimensions
	// and world seed.
	var flat *flatWorld
	log.time("build", "", func() { flat = buildFlat(c, true, log, "build") })
	registerS := log.time("registry.register", "build", func() {
		flat.register(opts.Catalog, 2*c.Peers/c.Functions, rand.New(rand.NewSource(traffic)))
	})

	tot := tr.counters.Totals()
	perReq := func(d time.Duration) float64 { return ratio(ms(d), float64(phases.Reqs)) }
	sort.Slice(commitLat, func(i, j int) bool { return commitLat[i] < commitLat[j] })
	r.Layer = map[string]float64{
		"registry.register_s": registerS,

		"simnet.peak_queue":   float64(peakQueue),
		"dht.hops_per_lookup": ratio(float64(tot.DHTHops-built.DHTHops), float64(tr.hist.DHTLookup.Count())),

		"bcp.probes_sent":           float64(tot.ProbesSent),
		"bcp.probes_returned_ratio": ratio(float64(tot.ProbesReturned), float64(tot.ProbesSent)),
		"bcp.budget_per_request":    ratio(float64(tot.BudgetSpent), float64(r.Attempted)),
		"bcp.probes_shed":           float64(tot.ProbesShed),
		"bcp.phase_discovery_ms":    perReq(phases.Discovery),
		"bcp.phase_probe_ms":        perReq(phases.Probe),
		"bcp.phase_collect_ms":      perReq(phases.Collect),
		"bcp.phase_commit_ms":       perReq(phases.Commit),

		"federation.commit_p50_ms": ms(percentile(commitLat, 50)),

		"obs.trace_events": float64(tr.sink.Count()),
		"obs.encode_mb":    float64(tr.buf.Len()) / (1 << 20),
		"obs.check_s":      checkS,
		"obs.span_s":       spanS,

		"workload.generate_s": generateS,
		"cluster.new_s":       r.SetupS,
		"cluster.heap_mb":     clusterHeapMB,
	}
	r.commonLayer(shares, flat)
	return r, nil
}

// tracing is everything a traced round switches on inside the program: the
// JSONL event trace (buffered in memory), the per-node counters and the
// online histograms.
type tracing struct {
	buf      bytes.Buffer
	sink     *obs.JSONLSink
	counters *obs.Registry
	hist     *obs.Metrics
}

func newTracing() *tracing {
	t := &tracing{counters: obs.NewRegistry(), hist: obs.NewMetrics()}
	t.sink = obs.NewJSONLSink(&t.buf)
	return t
}

// analyse replays the buffered trace twice through obs.ScanTrace — into the
// streaming invariant checker, then into the span builder — and times each,
// decode included: that is what checking or explaining a run costs offline.
func (t *tracing) analyse(log *spanLog) (checkS, spanS float64, phases span.PhaseTotals, vs []obs.Violation, err error) {
	if err = t.sink.Flush(); err != nil {
		return
	}
	replay := func(add func(obs.Event)) {
		scanErr := obs.ScanTrace(bytes.NewReader(t.buf.Bytes()), func(ev obs.Event) error {
			add(ev)
			return nil
		})
		if err == nil {
			err = scanErr
		}
	}
	checkS = log.time("obs.check", "analysis", func() {
		checker := obs.NewChecker()
		replay(checker.Add)
		vs = checker.Finish()
	})
	spanS = log.time("obs.span", "analysis", func() {
		b := span.NewBuilder()
		replay(b.Add)
		phases = b.Build().Totals()
	})
	return
}

// netStats records the network's totals over the run and splits the messages
// by layer: a message type's prefix (dht, bcp, rec, fed) names its sender.
func (r *roundResult) netStats(st simnet.Stats) {
	r.Msgs, r.Bytes, r.Delivered = st.MessagesSent, st.BytesSent, st.Delivered
	r.ByLayer = make(map[string]int64)
	for typ, n := range st.ByType {
		layer, _, _ := strings.Cut(typ, ".")
		r.ByLayer[layer] += n
	}
}

// killedSince reports whether churn failed peer id at or after t.
func killedSince(lastFail map[p2p.NodeID]time.Duration, id p2p.NodeID, t time.Duration) bool {
	at, failed := lastFail[id]
	return failed && at >= t
}

// commonLayer fills the per-layer metrics that every kind of cell derives the
// same way: from the round's own counts, the CPU attribution, and the timed
// build of a flat world.
func (r *roundResult) commonLayer(shares map[string]float64, built *flatWorld) {
	r.Layer["topology.generate_s"] = built.generateS
	r.Layer["topology.overlay_s"] = built.overlayS
	r.Layer["topology.heap_mb"] = built.topologyHeapMB
	r.Layer["simnet.addnode_s"] = built.addNodeS
	r.Layer["dht.build_s"] = built.ringS

	for _, layer := range []string{"topology", "simnet", "dht", "bcp", "recovery", "federation", "obs"} {
		r.Layer[layer+".cpu_share"] = shares[layer]
	}
	r.Layer["runtime.gc_cpu_share"] = shares["runtime.gc"]
	r.Layer["runtime.gc_cycles"] = float64(r.GCCycles)
	r.Layer["runtime.alloc_mb_per_op"] = ratio(float64(r.AllocBytes)/(1<<20), float64(r.Attempted))

	r.Layer["simnet.events"] = float64(r.Events)
	r.Layer["simnet.events_per_s"] = ratio(float64(r.Events), r.RunS)
	r.Layer["simnet.msgs"] = float64(r.Msgs)
	r.Layer["simnet.bytes"] = float64(r.Bytes)
	r.Layer["simnet.delivered_ratio"] = ratio(float64(r.Delivered), float64(r.Msgs))
	r.Layer["dht.msgs"] = float64(r.ByLayer["dht"])
	r.Layer["bcp.msgs"] = float64(r.ByLayer["bcp"])
	r.Layer["recovery.msgs"] = float64(r.ByLayer["rec"])
	r.Layer["recovery.msgs_share"] = ratio(float64(r.ByLayer["rec"]), float64(r.Msgs))
	r.Layer["federation.msgs"] = float64(r.ByLayer["fed"])

	rec := r.Recovery
	r.Layer["recovery.failures_detected"] = float64(rec.FailuresDetected)
	r.Layer["recovery.switchovers"] = float64(rec.Switchovers)
	r.Layer["recovery.reactives"] = float64(rec.Reactives)
	r.Layer["recovery.unrecovered"] = float64(rec.Dead)
	r.Layer["recovery.switchover_ratio"] = ratio(float64(rec.Switchovers), float64(rec.FailuresDetected))
	r.Layer["federation.prepares"] = float64(r.FedPrepares)
	r.Layer["federation.commits"] = float64(r.FedCommits)
	r.Layer["federation.aborts"] = float64(r.FedAborts)
	r.Layer["federation.commit_ratio"] = ratio(float64(r.FedCommits), float64(r.FedPrepares))
	r.Layer["federation.orphans"] = float64(r.Orphans)
}

// digest fingerprints everything the round measured on the virtual clock.
func (r *roundResult) digest() string {
	h := fnv.New64a()
	fmt.Fprintln(h, r.Attempted, r.Ok, r.Hung, r.SourceKilled, r.SkippedDead,
		r.Events, r.Msgs, r.Bytes, r.Delivered, r.Orphans,
		r.Recovery.FailuresDetected, r.Recovery.Switchovers, r.Recovery.Reactives, r.Recovery.Dead,
		r.FedPrepares, r.FedCommits, r.FedAborts)
	layers := make([]string, 0, len(r.ByLayer))
	for l := range r.ByLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintln(h, l, r.ByLayer[l])
	}
	for _, d := range r.Latencies {
		fmt.Fprintln(h, int64(d))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// flatWorld is a graph, an overlay, a node table and one flat DHT ring, each
// built by a direct call into its layer. It is the scale cell's whole world,
// and on the other cells the standalone rebuild that times the layers
// cluster.New hides.
type flatWorld struct {
	ov    *topology.Overlay
	sim   *simnet.Sim
	net   *simnet.Network
	nodes []*dht.Node

	generateS, overlayS, addNodeS, ringS float64
	topologyHeapMB                       float64
}

func buildFlat(c cell, traced bool, log *spanLog, parent string) *flatWorld {
	w := &flatWorld{}
	rng := rand.New(rand.NewSource(worldSeed))
	heapBefore := 0.0
	if traced {
		heapBefore = liveHeapMB()
	}
	var g *topology.Graph
	w.generateS = log.time("topology.generate", parent, func() {
		g = topology.GeneratePowerLaw(c.IPNodes, 2, 2, 30, rng)
	})
	w.overlayS = log.time("topology.overlay", parent, func() {
		w.ov = topology.BuildOverlay(g, topology.OverlayConfig{
			NumPeers: c.Peers, Degree: 4, CapMin: 2000, CapMax: 10000,
			Compact: c.Gets > 0, // the one delete-list knob: scale's O(peers²) latency matrix would be 7 GB
		}, rng)
	})
	if traced {
		w.topologyHeapMB = liveHeapMB() - heapBefore
	}
	w.sim = simnet.NewSim()
	nw := simnet.NewNetwork(w.sim, pairLatency, rng)
	w.net = nw
	hosts := make([]p2p.Node, c.Peers)
	w.addNodeS = log.time("simnet.addnode", parent, func() {
		for i := range hosts {
			hosts[i] = nw.AddNode(p2p.NodeID(i))
		}
	})
	w.nodes = make([]*dht.Node, c.Peers)
	w.ringS = log.time("dht.build", parent, func() {
		for i, h := range hosts {
			w.nodes[i] = dht.New(h, nw.Alive)
		}
		dht.Build(w.nodes)
	})
	return w
}

// pairLatency is a cheap, fixed one-way latency of 2–30 ms per ordered pair.
// The compact overlay's own Latency runs a route search for unlinked pairs,
// which would time topology inside every DHT hop.
func pairLatency(from, to p2p.NodeID) time.Duration {
	x := uint64(from)*0x9E3779B97F4A7C15 ^ uint64(to)*0xC2B2AE3D27D4EB4F ^ worldSeed
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return 2*time.Millisecond + time.Duration(x%uint64(28*time.Millisecond))
}

// register puts perFn provider records under every function's key from
// random peers and runs the ring idle; it returns the events that took.
func (w *flatWorld) register(functions []string, perFn int, rng *rand.Rand) (events int64) {
	for _, fn := range functions {
		key := registry.FunctionKey(fn)
		for p := 0; p < perFn; p++ {
			src := rng.Intn(len(w.nodes))
			w.nodes[src].Put(key, fmt.Sprintf("p%d/%s", src, fn), 96)
		}
	}
	for w.sim.Step() {
		events++
	}
	return events
}

// runScale is the cell that composes nothing: the build is the setup, and
// the run registers providers, resolves lookups scheduled over the window,
// and asks the overlay for cold routes. An operation is a lookup or a route.
func runScale(c cell, traffic int64, traced bool) (roundResult, error) {
	r := roundResult{}
	log := &spanLog{t0: time.Now()}
	heap := startHeapSampler()

	var w *flatWorld
	r.SetupS = log.time("setup", "", func() { w = buildFlat(c, traced, log, "setup") })

	pick := rand.New(rand.NewSource(traffic))
	type lookup struct {
		src int
		key dht.ID
		at  time.Duration
	}
	functions := catalog(c.Functions)
	lookups := make([]lookup, c.Gets)
	routes := make([][2]int, c.Routes)
	generateS := log.time("workload.generate", "", func() {
		for i := range lookups {
			lookups[i] = lookup{
				src: pick.Intn(c.Peers),
				key: registry.FunctionKey(functions[pick.Intn(len(functions))]),
				at:  time.Duration(pick.Float64() * float64(c.Window)),
			}
		}
		for i := range routes {
			routes[i] = [2]int{pick.Intn(c.Peers), pick.Intn(c.Peers)}
		}
	})

	var registerS, lookupS, routeS float64
	var hops int64
	answered, peakQueue := 0, 0
	shares, err := r.measured(log, traced, func() {
		registerS = log.time("registry.register", "run", func() {
			r.Events += w.register(functions, c.Providers, pick)
		})
		lookupS = log.time("dht.lookup", "run", func() {
			for _, l := range lookups {
				w.sim.Schedule(l.at, func() {
					r.Attempted++
					start := w.sim.Now()
					w.nodes[l.src].Get(l.key, time.Second, func(items []any, h int, ok bool) {
						answered++
						if ok && len(items) > 0 {
							r.Ok++
							r.Latencies = append(r.Latencies, w.sim.Now()-start)
							hops += int64(h)
						}
					})
				})
			}
			for w.sim.Step() {
				r.Events++
				if q := w.sim.Pending(); traced && q > peakQueue {
					peakQueue = q
				}
			}
		})
		routeS = log.time("topology.route", "run", func() {
			for _, rt := range routes {
				r.Attempted++
				if _, ok := w.ov.Route(rt[0], rt[1]); ok {
					r.Ok++
				}
			}
		})
	})
	r.PeakHeapMB = heap.peakMB()
	if err != nil {
		return r, err
	}
	r.Hung = c.Gets - answered // Get promises exactly one callback
	r.netStats(w.net.Stats())
	r.Digest = r.digest()
	r.Spans = log.spans
	if !traced {
		return r, nil
	}
	r.Layer = map[string]float64{
		"workload.generate_s": generateS,
		"topology.route_us":   ratio(routeS*1e6, float64(c.Routes)),
		"simnet.peak_queue":   float64(peakQueue),
		"dht.hops_per_lookup": ratio(float64(hops), float64(len(r.Latencies))),
		"dht.lookup_us":       ratio(lookupS*1e6, float64(c.Gets)),
		"registry.register_s": registerS,
	}
	r.commonLayer(shares, w)
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
