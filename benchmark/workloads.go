package main

import (
	"fmt"
	"hash/fnv"
	"time"
)

// cell is one benchmark workload, declared as data: a world shape, an
// open-loop arrival schedule on the virtual clock, and the protocol options
// that select which layers do the work. runCell (world.go) is the one driver
// that turns a cell and a traffic seed into a result.
//
// The four composition cells share the paper's §6.1 world (10 000 IP nodes,
// 1 000 peers; requests of 2–4 functions, DAG probability 0.2, commutation
// probability 0.2, delay requirement 500–2000 ms), so what differs between
// them is the protocol path, not the world. Their request counts and arrival
// windows are 0.4× the sizes ISSUE 12 measured its prototype at (0.6× on
// federate), with the arrival rate, session lifetimes and churn cadence
// unchanged: one round (build + run) then costs 5–6 s on the 2-core
// reference, so the 26 s run of BENCHMARK.json holds four rounds and the
// driver's 114 runs fit its time cap.
type cell struct {
	Name string
	Why  string

	IPNodes   int
	Peers     int
	Functions int
	CPU, Mem  float64 // per-peer capacity; 0 keeps cluster's default (20/200)

	// Requests candidate arrivals are drawn uniformly over Window from the
	// workload seed and scheduled before the first event runs (open loop:
	// a slow composition never delays a later arrival). With a flash crowd
	// they are thinned against the scenario's rate curve, spidersim-style.
	// The run ends Tail after the window closes.
	Requests int
	Window   time.Duration
	Tail     time.Duration
	Budget   int

	Life     time.Duration // admitted sessions are torn down after Life; 0 = they live to the horizon
	Recovery bool          // recovery.DefaultConfig(), every success Established

	ChurnEvery time.Duration // every ChurnEvery, ChurnFrac of the peers fail...
	ChurnFrac  float64
	ChurnDown  time.Duration // ...and return ChurnDown later

	Load      bool // overload plane: 20 ms base delay, cap 0.95, load-aware, shed at 0.8
	Zipf      float64
	FlashFn   string
	FlashMult float64
	FlashAt   time.Duration
	FlashDur  time.Duration

	Domains string // federation spec; "" = one flat overlay

	// The scale cell composes nothing: Providers puts per function, Gets
	// lookups scheduled uniformly over Window, then Routes overlay route
	// queries.
	Providers int
	Gets      int
	Routes    int
}

// nominalRoundS is the budget for one round (build + run) of any cell on the
// 2-core reference. The number of rounds in a run is -seconds divided by it,
// so the work done — and with it every virtual metric — depends on the flags
// alone, never on how fast this machine happens to be.
const nominalRoundS = 6.5

var cells = []cell{
	{
		Name: "steady",
		Why:  "clean BCP + DHT discovery + overlay routing at ~100% success; topology route computation and bcp handlers do the work, recovery and federation none",

		IPNodes: 10000, Peers: 1000, Functions: 100,
		Requests: 800, Window: 64 * time.Second, Tail: 40 * time.Second, Budget: 20,
		Life: 30 * time.Second,
	},
	{
		Name: "churn",
		Why:  "recovery on under 1%/30s peer churn: three quarters of all messages are cheap rec.* maintenance, so recovery and the simnet event loop do the work; catches gains that cost the light-event path",

		IPNodes: 10000, Peers: 1000, Functions: 100,
		Requests: 600, Window: 96 * time.Second, Tail: 54 * time.Second, Budget: 20,
		Recovery:   true,
		ChurnEvery: 30 * time.Second, ChurnFrac: 0.01, ChurnDown: 60 * time.Second,
	},
	{
		Name: "flash",
		Why:  "overload path: tight capacity, load-aware next hop, shedding and a flash crowd on fn0; failures are large by design, so trading tail or success for speed is caught",

		IPNodes: 10000, Peers: 1000, Functions: 100, CPU: 8, Mem: 80,
		Requests: 6400, Window: 230 * time.Second, Tail: 40 * time.Second, Budget: 8,
		Life: 30 * time.Second,
		Load: true, Zipf: 1.1, FlashFn: "fn0", FlashMult: 8, FlashAt: 96 * time.Second, FlashDur: 48 * time.Second,
	},
	{
		Name: "federate",
		Why:  "only place federation 2PC (prepare/vote/decide, held bcp reservations) and per-domain rings run; bcp is driven through Hold/Promote instead of direct commit",

		IPNodes: 10000, Peers: 1000, Functions: 48,
		Requests: 4800, Window: 576 * time.Second, Tail: 0, Budget: 16,
		Domains: "domains=4,gateways=2,hold=15s,life=15s",
	},
	{
		Name: "scale",
		Why:  "no composition: 300k-node graph, 30k-peer compact overlay, node table and one flat ring are built, then puts, lookups and cold routes; build layers and setup_s dominate",

		IPNodes: 300000, Peers: 30000, Functions: 300,
		Window:    10 * time.Second,
		Providers: 10, Gets: 8000, Routes: 200,
	},
}

func cellByName(name string) (cell, bool) {
	for _, c := range cells {
		if c.Name == name {
			return c, true
		}
	}
	return cell{}, false
}

// scenario renders the cell's stress shaping in workload.ParseScenario's
// grammar; "" when the cell has none.
func (c cell) scenario() string {
	if c.Zipf == 0 {
		return ""
	}
	s := fmt.Sprintf("zipf=%g", c.Zipf)
	if c.FlashFn != "" {
		s += fmt.Sprintf(",flash=%s:%g@%s+%s", c.FlashFn, c.FlashMult, c.FlashAt, c.FlashDur)
	}
	return s
}

// specHash identifies the workload definitions a result was measured with.
func specHash() string {
	h := fnv.New64a()
	for _, c := range cells {
		fmt.Fprintf(h, "%+v\n", c)
	}
	fmt.Fprintf(h, "round=%g\n", nominalRoundS)
	return fmt.Sprintf("%016x", h.Sum64())
}

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// virtual reports whether an end-to-end metric is measured on simnet's clock,
// where a fixed seed repeats it exactly; the others are host measurements.
func (m metricDef) virtual() bool {
	switch m.Name {
	case "setup_s", "run_s", "peak_heap_mb", "allocs_per_op":
		return false
	}
	return true
}

// endToEnd is what a user of the system sees, on two clocks. The wall
// metrics (s, MB, allocations) are the simulator's cost on the host; the
// *_virtual and per-session metrics are what a protocol user sees on
// simnet's clock and repeat exactly for a fixed seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.06},
	{"compose_p50_ms", "ms_virtual", "lower", 0.03},
	{"compose_p99_ms", "ms_virtual", "lower", 0.03},
	{"ok_share", "ratio", "higher", 0.03},
	{"msgs_per_session", "count", "lower", 0.06},
	{"bytes_per_session", "bytes", "lower", 0.06},
}

// perLayer is the traced run's attribution, one module per prefix. A metric
// that a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"topology.generate_s", "s", "lower", 0},
	{"topology.overlay_s", "s", "lower", 0},
	{"topology.heap_mb", "MB", "lower", 0},
	{"topology.cpu_share", "ratio", "lower", 0},
	{"topology.route_us", "us", "lower", 0},

	{"simnet.addnode_s", "s", "lower", 0},
	{"simnet.events", "count", "lower", 0},
	{"simnet.events_per_s", "1/s", "higher", 0},
	{"simnet.cpu_share", "ratio", "lower", 0},
	{"simnet.peak_queue", "count", "lower", 0},
	{"simnet.msgs", "count", "lower", 0},
	{"simnet.bytes", "bytes", "lower", 0},
	{"simnet.delivered_ratio", "ratio", "higher", 0},

	{"dht.build_s", "s", "lower", 0},
	{"dht.msgs", "count", "lower", 0},
	{"dht.hops_per_lookup", "count", "lower", 0},
	{"dht.cpu_share", "ratio", "lower", 0},
	{"dht.lookup_us", "us", "lower", 0},
	{"registry.register_s", "s", "lower", 0},

	{"bcp.msgs", "count", "lower", 0},
	{"bcp.probes_sent", "count", "lower", 0},
	{"bcp.probes_returned_ratio", "ratio", "higher", 0},
	{"bcp.budget_per_request", "count", "lower", 0},
	{"bcp.probes_shed", "count", "lower", 0},
	{"bcp.cpu_share", "ratio", "lower", 0},
	{"bcp.phase_discovery_ms", "ms_virtual", "lower", 0},
	{"bcp.phase_probe_ms", "ms_virtual", "lower", 0},
	{"bcp.phase_collect_ms", "ms_virtual", "lower", 0},
	{"bcp.phase_commit_ms", "ms_virtual", "lower", 0},

	{"recovery.msgs", "count", "lower", 0},
	{"recovery.msgs_share", "ratio", "lower", 0},
	{"recovery.cpu_share", "ratio", "lower", 0},
	{"recovery.failures_detected", "count", "lower", 0},
	{"recovery.switchovers", "count", "higher", 0},
	{"recovery.reactives", "count", "lower", 0},
	{"recovery.unrecovered", "count", "lower", 0},
	{"recovery.switchover_ratio", "ratio", "higher", 0},

	{"federation.msgs", "count", "lower", 0},
	{"federation.prepares", "count", "lower", 0},
	{"federation.commits", "count", "higher", 0},
	{"federation.aborts", "count", "lower", 0},
	{"federation.commit_ratio", "ratio", "higher", 0},
	{"federation.commit_p50_ms", "ms_virtual", "lower", 0},
	{"federation.cpu_share", "ratio", "lower", 0},
	{"federation.orphans", "count", "lower", 0},

	{"obs.trace_events", "count", "lower", 0},
	{"obs.encode_mb", "MB", "lower", 0},
	{"obs.trace_overhead_share", "ratio", "lower", 0},
	{"obs.check_s", "s", "lower", 0},
	{"obs.span_s", "s", "lower", 0},
	{"obs.cpu_share", "ratio", "lower", 0},

	{"workload.generate_s", "s", "lower", 0},
	{"cluster.new_s", "s", "lower", 0},
	{"cluster.heap_mb", "MB", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
}
