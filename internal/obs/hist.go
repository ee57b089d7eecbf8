package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Histogram is a fixed-boundary bucket histogram: observations are folded
// into bucket counts at Observe time, so memory is O(buckets) regardless of
// traffic volume — unlike metrics.Sample, which retains every observation.
// Boundaries are fixed at construction (log buckets for latencies and byte
// sizes, linear for small integer quantities), which makes two histograms
// from identically seeded runs identical.
//
// The histogram is safe for concurrent use: the live runtimes observe from
// many goroutines and the admin endpoint snapshots while traffic flows. The
// simulator's single-threaded loop pays only an uncontended mutex, and all
// of it only on runs that opted into metrics (the wiring is nil-guarded).
type Histogram struct {
	name   string
	unit   string
	bounds []float64 // ascending upper bounds; a final +Inf bucket is implicit

	mu     sync.Mutex
	counts []int64 // len(bounds)+1, last is the +Inf overflow bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram creates a histogram with the given metric name (Prometheus
// style, e.g. "setup_latency_ms"), unit label, and ascending bucket upper
// bounds. Panics on empty or non-ascending bounds: boundaries are part of
// the metric's identity and a typo must not ship.
func NewHistogram(name, unit string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " has no bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + " bounds not ascending")
		}
	}
	return &Histogram{
		name:   name,
		unit:   unit,
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// ExpBounds returns n exponential bucket bounds: start, start*factor, ...
func ExpBounds(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBounds returns n linear bucket bounds: start, start+step, ...
func LinearBounds(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Unit returns the unit label.
func (h *Histogram) Unit() string { return h.unit }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// ObserveDuration records a duration in milliseconds, the unit every
// latency histogram in the metrics plane uses.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation (0 for an empty histogram).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Buckets returns copies of the bucket upper bounds and counts, and the sum
// of the observations they count, all read in one snapshot. The last count is
// the +Inf overflow bucket, so len(counts) == len(bounds)+1.
func (h *Histogram) Buckets() (bounds []float64, counts []int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...), append([]int64(nil), h.counts...), h.sum
}

// Quantile estimates the q'th quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the target rank, clamped to the
// observed min/max. The estimate is deterministic: it depends only on the
// bucket counts, never on observation order.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := h.min
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if lo < h.min {
			lo = h.min
		}
		if hi < lo {
			hi = lo
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.max
}

// AppendJSON appends the histogram's fixed-field-order JSON encoding:
//
//	{"name":..,"unit":..,"count":..,"sum":..,"min":..,"max":..,
//	 "buckets":[{"le":..,"n":..},...]}
//
// Only non-empty buckets are listed; the final bucket's "le" is "inf" for
// the overflow bucket. Field order and float formatting are fixed, so
// identical histograms encode byte-identically.
func (h *Histogram) AppendJSON(b []byte) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	b = append(b, `{"name":"`...)
	b = append(b, h.name...)
	b = append(b, `","unit":"`...)
	b = append(b, h.unit...)
	b = append(b, `","count":`...)
	b = strconv.AppendInt(b, h.count, 10)
	b = append(b, `,"sum":`...)
	b = appendFloat(b, h.sum)
	b = append(b, `,"min":`...)
	b = appendFloat(b, h.min)
	b = append(b, `,"max":`...)
	b = appendFloat(b, h.max)
	b = append(b, `,"buckets":[`...)
	first := true
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, `{"le":`...)
		if i < len(h.bounds) {
			b = appendFloat(b, h.bounds[i])
		} else {
			b = append(b, `"inf"`...)
		}
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, c, 10)
		b = append(b, '}')
	}
	b = append(b, ']', '}')
	return b
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Gauge is a named instantaneous value (e.g. active sessions). Atomic, so
// the live runtimes may move it from any goroutine while the admin endpoint
// reads it.
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge creates a gauge with a Prometheus-style metric name.
func NewGauge(name string) *Gauge { return &Gauge{name: name} }

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Add moves the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v exceeds the current value (a running
// high-water mark). Safe under concurrent observers.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Metrics is the online metrics plane: the standard distribution metrics
// every runtime wires into its hot paths. All fields are always non-nil on
// a Metrics built by NewMetrics; producers hold a possibly-nil *Metrics and
// guard each observation site with one pointer check, mirroring the Tracer
// convention.
type Metrics struct {
	// SetupLatency is the end-to-end session setup time of successful
	// compositions (compose.start -> compose.done ok), in milliseconds —
	// the distribution behind the paper's Figure 10.
	SetupLatency *Histogram
	// DiscoveryLatency is the decentralized discovery phase duration of
	// successful compositions, in milliseconds. The later setup phases
	// (probe, collect, commit) come from the trace's span trees.
	DiscoveryLatency *Histogram
	// ProbeHops is the hop count of each probe that completed its branch
	// and reported to the destination.
	ProbeHops *Histogram
	// ProbeBudget is the probing budget carried by each emitted probe —
	// the per-probe overhead knob of §4.2.
	ProbeBudget *Histogram
	// DHTLookup is the latency of each successful DHT Get, in milliseconds.
	DHTLookup *Histogram
	// Switchover is the session-broken-to-repaired duration of each
	// proactive switchover recovery, in milliseconds (§5).
	Switchover *Histogram
	// WireBytes is the approximate wire size of every message sent, in
	// bytes.
	WireBytes *Histogram
	// PeerLoad is the utilization (in [0,1]) each peer observed on itself
	// while handling a probe — the load distribution the overload control
	// plane acts on.
	PeerLoad *Histogram
	// ActiveSessions counts sessions currently owned by recovery managers.
	ActiveSessions *Gauge
	// PeerLoadMax is the highest per-peer utilization seen anywhere, in
	// permille (0..1000), a high-water mark for spotting hotspots.
	PeerLoadMax *Gauge
}

// NewMetrics builds the standard metric set with its canonical boundaries.
func NewMetrics() *Metrics {
	latency := ExpBounds(0.5, 2, 18) // 0.5ms .. ~65.5s
	return &Metrics{
		SetupLatency:     NewHistogram("setup_latency_ms", "ms", latency),
		DiscoveryLatency: NewHistogram("discovery_latency_ms", "ms", latency),
		ProbeHops:        NewHistogram("probe_hops", "hops", LinearBounds(1, 1, 16)),
		ProbeBudget:      NewHistogram("probe_budget", "units", LinearBounds(1, 1, 16)),
		DHTLookup:        NewHistogram("dht_lookup_ms", "ms", latency),
		Switchover:       NewHistogram("recovery_switchover_ms", "ms", latency),
		WireBytes:        NewHistogram("wire_bytes", "bytes", ExpBounds(32, 2, 16)), // 32B .. 1MiB
		PeerLoad:         NewHistogram("peer_load", "util", LinearBounds(0.05, 0.05, 20)),
		ActiveSessions:   NewGauge("active_sessions"),
		PeerLoadMax:      NewGauge("peer_load_max_permille"),
	}
}

// Histograms lists every histogram in fixed declaration order, for
// deterministic rendering.
func (m *Metrics) Histograms() []*Histogram {
	return []*Histogram{
		m.SetupLatency, m.DiscoveryLatency, m.ProbeHops, m.ProbeBudget,
		m.DHTLookup, m.Switchover, m.WireBytes, m.PeerLoad,
	}
}

// Gauges lists every gauge in fixed declaration order.
func (m *Metrics) Gauges() []*Gauge {
	return []*Gauge{m.ActiveSessions, m.PeerLoadMax}
}

// Table renders the non-empty histograms as a quantile summary table.
func (m *Metrics) Table(title string) *metrics.Table {
	t := metrics.NewTable(title, "metric", "unit", "count", "mean", "p50", "p90", "p99", "max")
	for _, h := range m.Histograms() {
		if h.Count() == 0 {
			continue
		}
		t.AddRow(h.Name(), h.Unit(), h.Count(), h.Mean(),
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max())
	}
	return t
}

// AppendJSON appends the fixed-order JSON encoding of the whole metric set.
func (m *Metrics) AppendJSON(b []byte) []byte {
	b = append(b, `{"histograms":[`...)
	for i, h := range m.Histograms() {
		if i > 0 {
			b = append(b, ',')
		}
		b = h.AppendJSON(b)
	}
	b = append(b, `],"gauges":{`...)
	for i, g := range m.Gauges() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, g.Name()...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, g.Value(), 10)
	}
	b = append(b, '}', '}')
	return b
}
