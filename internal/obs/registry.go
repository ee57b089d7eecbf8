package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/p2p"
)

// NodeCounters is one peer's monotonically increasing overhead counters.
// Registry.Emit folds the events CounterTable names into them; for the rest,
// which no event records, producers cache the pointer once (at wiring time)
// and bump them with Add. The fields are atomic so the admin endpoint (and
// any other observer) can snapshot counters while the live runtimes are
// moving them from many goroutines; in the single-threaded simulator the
// atomic add is uncontended and costs a few nanoseconds on runs that opted
// into counters.
type NodeCounters struct {
	MsgsSent  atomic.Int64 // messages this node put on the wire
	BytesSent atomic.Int64 // approximate wire bytes sent
	MsgsRecv  atomic.Int64 // messages delivered to this node
	MsgsDrop  atomic.Int64 // messages this node sent that were dropped

	ProbesSent     atomic.Int64 // BCP probes emitted (origin + forwards)
	ProbesDropped  atomic.Int64 // probes this node killed (QoS/resources/links)
	ProbesReturned atomic.Int64 // completed probes reported to a destination
	ProbesCredited atomic.Int64 // dead probes' credit counted by a destination
	BudgetSpent    atomic.Int64 // probing budget carried by emitted probes
	ProbesRetx     atomic.Int64 // per-hop probe retransmits (same PID, no budget)
	ProbesShed     atomic.Int64 // probes declined by overload shedding (util over threshold)

	DHTHops          atomic.Int64 // DHT messages this node forwarded
	DiscLookups      atomic.Int64 // discovery lookups this node issued (gets actually sent)
	DiscCacheHits    atomic.Int64 // duplicate lists served from this node's discovery cache
	DiscHinted       atomic.Int64 // lookups handed straight to a peer a hint or an earlier answer named
	DiscJoined       atomic.Int64 // cache misses that waited on a lookup already in flight
	DiscCarried      atomic.Int64 // duplicate lists from a source's probe, whole or rebuilt from a tail, installed where nothing live or newer was cached
	DiscCarriedShort atomic.Int64 // carried list tails a hop held too few items to rebuild
	DiscDelta        atomic.Int64 // lookups answered with only the items new since the last answer
	DiscStale        atomic.Int64 // duplicate lists answered past their expiry, each starting the one refresh behind it

	Faults atomic.Int64 // injected network faults on messages this node sent

	FedPrepares atomic.Int64 // federation holds this gateway prepared
	FedCommits  atomic.Int64 // holds promoted to committed sessions
	FedAborts   atomic.Int64 // holds released (explicit abort or expiry)
}

// Snapshot reads every counter once and returns a plain copyable value.
func (c *NodeCounters) Snapshot() Counters {
	var s Counters
	for _, k := range CounterTable {
		*k.get(&s) = k.node(c).Load()
	}
	return s
}

// Counters is a plain snapshot of a NodeCounters block (or a sum of them).
// NodeCounters itself must not be copied — its atomic fields pin it in
// place — so aggregation and rendering work on this value type.
type Counters struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	MsgsDrop  int64

	ProbesSent     int64
	ProbesDropped  int64
	ProbesReturned int64
	ProbesCredited int64
	BudgetSpent    int64
	ProbesRetx     int64
	ProbesShed     int64

	DHTHops          int64
	DiscLookups      int64
	DiscCacheHits    int64
	DiscHinted       int64
	DiscJoined       int64
	DiscCarried      int64
	DiscCarriedShort int64
	DiscDelta        int64
	DiscStale        int64

	Faults int64

	FedPrepares int64
	FedCommits  int64
	FedAborts   int64
}

// CounterSpec is one row of CounterTable: a counter's exported name, the
// label it reports under, its help text and, for the counters that are folds
// of the trace, the event kinds behind it.
type CounterSpec struct {
	name  string // /snapshot key; with "_total" appended, the /metrics name
	label string // Registry.Table row
	help  string // /metrics HELP text
	col   string // PerNodeTable column, empty if the table leaves it out
	// kinds are the events Registry.Emit folds into the counter, on the
	// emitting node (none: the producer adds to it directly, as the trace
	// has no per-event record of it); note, when set, is the Note they must
	// carry to count; sum says the counter adds up their Budget instead of
	// counting them.
	kinds []string
	note  string
	sum   bool
	node  func(*NodeCounters) *atomic.Int64
	get   func(*Counters) *int64
}

// Name returns the counter's exported name.
func (k CounterSpec) Name() string { return k.name }

// Help returns the counter's one-line description.
func (k CounterSpec) Help() string { return k.help }

// Value returns the counter's value in c.
func (k CounterSpec) Value(c *Counters) int64 { return *k.get(c) }

// CounterTable declares the counter set once, in struct order. Snapshot,
// Counters.Add, Registry.Merge, Registry.Table and PerNodeTable and the admin
// endpoint's /metrics and /snapshot all loop over it, so a counter added to
// the two structs and here is reported everywhere. Its kinds column is the
// one place an event is declared to count: Registry.Emit folds by it.
var CounterTable = []CounterSpec{
	{name: "msgs_sent", col: "msgs", label: "messages sent", help: "Messages put on the wire.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.MsgsSent }, get: func(c *Counters) *int64 { return &c.MsgsSent }},
	{name: "bytes_sent", col: "bytes", label: "bytes sent", help: "Approximate wire bytes sent.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.BytesSent }, get: func(c *Counters) *int64 { return &c.BytesSent }},
	{name: "msgs_recv", col: "recv", label: "messages delivered", help: "Messages delivered.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.MsgsRecv }, get: func(c *Counters) *int64 { return &c.MsgsRecv }},
	{name: "msgs_dropped", label: "messages dropped", help: "Messages dropped by the network.", kinds: []string{KindNetDrop},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.MsgsDrop }, get: func(c *Counters) *int64 { return &c.MsgsDrop }},
	{name: "probes_sent", col: "probes", label: "probes sent", help: "BCP probes emitted (origin + forwards).", kinds: []string{KindProbeSent, KindProbeForwarded},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.ProbesSent }, get: func(c *Counters) *int64 { return &c.ProbesSent }},
	{name: "probes_dropped", col: "dropped", label: "probes dropped", help: "BCP probes killed by QoS/resource/link checks.", kinds: []string{KindProbeDropped},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.ProbesDropped }, get: func(c *Counters) *int64 { return &c.ProbesDropped }},
	{name: "probes_returned", col: "returned", label: "probes returned", help: "BCP probes that completed and reported.", kinds: []string{KindProbeReturned},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.ProbesReturned }, get: func(c *Counters) *int64 { return &c.ProbesReturned }},
	{name: "probes_credited", label: "probes credited", help: "Dead BCP probes whose credit a destination counted.", kinds: []string{KindProbeCredited},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.ProbesCredited }, get: func(c *Counters) *int64 { return &c.ProbesCredited }},
	{name: "probe_budget_spent", label: "probe budget spent", help: "Probing budget carried by emitted probes.", kinds: []string{KindProbeSent, KindProbeForwarded}, sum: true,
		node: func(c *NodeCounters) *atomic.Int64 { return &c.BudgetSpent }, get: func(c *Counters) *int64 { return &c.BudgetSpent }},
	{name: "probe_retransmits", label: "probe retransmits", help: "Per-hop probe retransmits (same PID, no budget).", kinds: []string{KindProbeRetx},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.ProbesRetx }, get: func(c *Counters) *int64 { return &c.ProbesRetx }},
	{name: "probes_shed", label: "probes shed", help: "BCP probes declined by overload shedding.", kinds: []string{KindProbeDropped}, note: "shed",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.ProbesShed }, get: func(c *Counters) *int64 { return &c.ProbesShed }},
	{name: "dht_hops", col: "dht-hops", label: "dht hops", help: "DHT messages forwarded.", kinds: []string{KindDHTHop},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.DHTHops }, get: func(c *Counters) *int64 { return &c.DHTHops }},
	{name: "disc_lookups", label: "discovery lookups", help: "Discovery lookups issued (cache misses).",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.DiscLookups }, get: func(c *Counters) *int64 { return &c.DiscLookups }},
	{name: "disc_cache_hits", label: "discovery cache hits", help: "Duplicate lists served from the discovery cache.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.DiscCacheHits }, get: func(c *Counters) *int64 { return &c.DiscCacheHits }},
	{name: "disc_hinted", label: "discovery lookups hinted", help: "Discovery lookups handed straight to a hinted peer.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.DiscHinted }, get: func(c *Counters) *int64 { return &c.DiscHinted }},
	{name: "disc_joined", label: "discovery lookups joined", help: "Cache misses that waited on a lookup already in flight.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.DiscJoined }, get: func(c *Counters) *int64 { return &c.DiscJoined }},
	{name: "disc_carried", label: "discovery lists carried", help: "Duplicate lists from a source's probe, whole or rebuilt from a tail, installed where nothing live or newer was cached.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.DiscCarried }, get: func(c *Counters) *int64 { return &c.DiscCarried }},
	{name: "disc_carried_short", label: "discovery tails short", help: "Carried list tails a hop could not rebuild: it held fewer items than the source had handed it.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.DiscCarriedShort }, get: func(c *Counters) *int64 { return &c.DiscCarriedShort }},
	{name: "disc_delta", label: "discovery lookups delta", help: "Discovery lookups answered with only the new items.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.DiscDelta }, get: func(c *Counters) *int64 { return &c.DiscDelta }},
	{name: "disc_stale", label: "discovery lists stale", help: "Duplicate lists answered past their expiry, each starting one refresh.",
		node: func(c *NodeCounters) *atomic.Int64 { return &c.DiscStale }, get: func(c *Counters) *int64 { return &c.DiscStale }},
	{name: "faults_injected", label: "faults injected", help: "Injected network faults on sent messages.", kinds: []string{KindNetFault},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.Faults }, get: func(c *Counters) *int64 { return &c.Faults }},
	{name: "fed_prepares", label: "fed prepares", help: "Federation holds prepared by gateways.", kinds: []string{KindFedPrepare},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.FedPrepares }, get: func(c *Counters) *int64 { return &c.FedPrepares }},
	{name: "fed_commits", label: "fed commits", help: "Federation holds promoted to committed sessions.", kinds: []string{KindFedCommit},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.FedCommits }, get: func(c *Counters) *int64 { return &c.FedCommits }},
	{name: "fed_aborts", label: "fed aborts", help: "Federation holds released (explicit abort or expiry).", kinds: []string{KindFedAbort},
		node: func(c *NodeCounters) *atomic.Int64 { return &c.FedAborts }, get: func(c *Counters) *int64 { return &c.FedAborts }},
}

// folds maps an event kind to the CounterTable rows that count it.
var folds = func() map[string][]CounterSpec {
	m := make(map[string][]CounterSpec)
	for _, k := range CounterTable {
		for _, kind := range k.kinds {
			m[kind] = append(m[kind], k)
		}
	}
	return m
}()

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	for _, k := range CounterTable {
		*k.get(c) += *k.get(&o)
	}
}

// Registry hands out per-node counter blocks and rolls them up into the
// metrics tables the experiment harness prints. As a Tracer it folds the
// events CounterTable names into them. The map is guarded for the
// concurrent live runtime.
type Registry struct {
	mu    sync.Mutex
	nodes map[p2p.NodeID]*NodeCounters
}

// NewRegistry creates an empty counter registry.
func NewRegistry() *Registry {
	return &Registry{nodes: make(map[p2p.NodeID]*NodeCounters)}
}

// Node returns id's counter block, creating it on first use. Callers keep
// the pointer; later calls return the same block.
func (r *Registry) Node(id p2p.NodeID) *NodeCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.nodes[id]
	if !ok {
		c = &NodeCounters{}
		r.nodes[id] = c
	}
	return c
}

// Emit folds ev into the emitting node's block: one for each CounterTable
// row whose kinds name ev.Kind and whose note, if any, is ev.Note, or
// ev.Budget for a sum row.
func (r *Registry) Emit(ev Event) {
	rows := folds[ev.Kind]
	if rows == nil {
		return
	}
	c := r.Node(ev.Node)
	for _, k := range rows {
		if k.note != "" && k.note != ev.Note {
			continue
		}
		n := int64(1)
		if k.sum {
			n = int64(ev.Budget)
		}
		k.node(c).Add(n)
	}
}

// Counting returns the tracer a run hands its layers: those of trace, reg
// and met that are non-nil, fanned out, or nil when none is. Attach it
// before the first message so every counted event is folded.
func Counting(trace Tracer, reg *Registry, met *Metrics) Tracer {
	var ts MultiTracer
	if trace != nil {
		ts = append(ts, trace)
	}
	if reg != nil {
		ts = append(ts, reg)
	}
	if met != nil {
		ts = append(ts, met)
	}
	switch len(ts) {
	case 0:
		return nil
	case 1:
		return ts[0]
	}
	return ts
}

// Merge adds every node's counters in o into r. Parallel sweeps give each
// cell a registry of its own (per-cell figures such as probes shed need one)
// and fold it into the shared registry -stats prints.
func (r *Registry) Merge(o *Registry) {
	for _, s := range o.Snapshot() {
		c := r.Node(s.ID)
		for _, k := range CounterTable {
			k.node(c).Add(k.Value(&s.Counters))
		}
	}
}

// Totals sums a snapshot of every node's counters.
func (r *Registry) Totals() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t Counters
	for _, c := range r.nodes {
		t.Add(c.Snapshot())
	}
	return t
}

// NodeSnapshot pairs a node ID with a point-in-time counter snapshot.
type NodeSnapshot struct {
	ID p2p.NodeID
	Counters
}

// Snapshot returns every node's counters, sorted by node ID, so renderers
// (the admin endpoint, JSON dumps) are deterministic.
func (r *Registry) Snapshot() []NodeSnapshot {
	r.mu.Lock()
	out := make([]NodeSnapshot, 0, len(r.nodes))
	for id, c := range r.nodes {
		out = append(out, NodeSnapshot{ID: id, Counters: c.Snapshot()})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Table rolls the registry up into a rendered metrics table: one row per
// counter, summed over all nodes.
func (r *Registry) Table(title string) *metrics.Table {
	t := metrics.NewTable(title, "counter", "total")
	tot := r.Totals()
	for _, k := range CounterTable {
		t.AddRow(k.label, k.Value(&tot))
	}
	return t
}

// PerNodeTable lists the top busiest nodes by messages sent, the table's
// first counter (all of them if top <= 0), for spotting hot spots. Rows are
// ordered by traffic, ties by node ID, so the table is deterministic.
func (r *Registry) PerNodeTable(title string, top int) *metrics.Table {
	rows, msgs := r.Snapshot(), CounterTable[0]
	sort.SliceStable(rows, func(i, j int) bool {
		return msgs.Value(&rows[i].Counters) > msgs.Value(&rows[j].Counters)
	})
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	cols := []string{"node"}
	for _, k := range CounterTable {
		if k.col != "" {
			cols = append(cols, k.col)
		}
	}
	t := metrics.NewTable(title, cols...)
	for _, r := range rows {
		cells := []any{int(r.ID)}
		for _, k := range CounterTable {
			if k.col != "" {
				cells = append(cells, k.Value(&r.Counters))
			}
		}
		t.AddRow(cells...)
	}
	return t
}
