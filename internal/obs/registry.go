package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/p2p"
)

// NodeCounters is one peer's monotonically increasing overhead counters.
// Producers cache the pointer once (at wiring time) and bump fields with
// Add(1). The fields are atomic so the admin endpoint (and any other
// observer) can snapshot counters while the live runtimes are moving them
// from many goroutines; in the single-threaded simulator the atomic add is
// uncontended and costs a few nanoseconds on runs that opted into counters.
type NodeCounters struct {
	MsgsSent  atomic.Int64 // messages this node put on the wire
	BytesSent atomic.Int64 // approximate wire bytes sent
	MsgsRecv  atomic.Int64 // messages delivered to this node
	MsgsDrop  atomic.Int64 // messages this node sent that were dropped

	ProbesSent     atomic.Int64 // BCP probes emitted (origin + forwards)
	ProbesDropped  atomic.Int64 // probes this node killed (QoS/resources/links)
	ProbesReturned atomic.Int64 // completed probes reported to a destination
	BudgetSpent    atomic.Int64 // probing budget carried by emitted probes
	ProbesRetx     atomic.Int64 // per-hop probe retransmits (same PID, no budget)
	ProbesShed     atomic.Int64 // probes declined by overload shedding (util over threshold)

	DHTHops       atomic.Int64 // DHT messages this node forwarded
	DiscLookups   atomic.Int64 // discovery lookups this node issued (gets actually sent)
	DiscCacheHits atomic.Int64 // duplicate lists served from this node's discovery cache
	DiscHinted    atomic.Int64 // lookups handed straight to a peer a hint or an earlier answer named
	DiscJoined    atomic.Int64 // cache misses that waited on a lookup already in flight
	DiscCarried   atomic.Int64 // duplicate lists installed from a source's probe
	DiscDelta     atomic.Int64 // lookups answered with only the items new since the last answer

	Faults atomic.Int64 // injected network faults on messages this node sent

	FedPrepares atomic.Int64 // federation holds this gateway prepared
	FedCommits  atomic.Int64 // holds promoted to committed sessions
	FedAborts   atomic.Int64 // holds released (explicit abort or expiry)
}

// Snapshot reads every counter once and returns a plain copyable value.
func (c *NodeCounters) Snapshot() Counters {
	return Counters{
		MsgsSent:       c.MsgsSent.Load(),
		BytesSent:      c.BytesSent.Load(),
		MsgsRecv:       c.MsgsRecv.Load(),
		MsgsDrop:       c.MsgsDrop.Load(),
		ProbesSent:     c.ProbesSent.Load(),
		ProbesDropped:  c.ProbesDropped.Load(),
		ProbesReturned: c.ProbesReturned.Load(),
		BudgetSpent:    c.BudgetSpent.Load(),
		ProbesRetx:     c.ProbesRetx.Load(),
		ProbesShed:     c.ProbesShed.Load(),
		DHTHops:        c.DHTHops.Load(),
		DiscLookups:    c.DiscLookups.Load(),
		DiscCacheHits:  c.DiscCacheHits.Load(),
		DiscHinted:     c.DiscHinted.Load(),
		DiscJoined:     c.DiscJoined.Load(),
		DiscCarried:    c.DiscCarried.Load(),
		DiscDelta:      c.DiscDelta.Load(),
		Faults:         c.Faults.Load(),
		FedPrepares:    c.FedPrepares.Load(),
		FedCommits:     c.FedCommits.Load(),
		FedAborts:      c.FedAborts.Load(),
	}
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
	BudgetSpent    int64
	ProbesRetx     int64
	ProbesShed     int64

	DHTHops       int64
	DiscLookups   int64
	DiscCacheHits int64
	DiscHinted    int64
	DiscJoined    int64
	DiscCarried   int64
	DiscDelta     int64

	Faults int64

	FedPrepares int64
	FedCommits  int64
	FedAborts   int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.MsgsSent += o.MsgsSent
	c.BytesSent += o.BytesSent
	c.MsgsRecv += o.MsgsRecv
	c.MsgsDrop += o.MsgsDrop
	c.ProbesSent += o.ProbesSent
	c.ProbesDropped += o.ProbesDropped
	c.ProbesReturned += o.ProbesReturned
	c.BudgetSpent += o.BudgetSpent
	c.ProbesRetx += o.ProbesRetx
	c.ProbesShed += o.ProbesShed
	c.DHTHops += o.DHTHops
	c.DiscLookups += o.DiscLookups
	c.DiscCacheHits += o.DiscCacheHits
	c.DiscHinted += o.DiscHinted
	c.DiscJoined += o.DiscJoined
	c.DiscCarried += o.DiscCarried
	c.DiscDelta += o.DiscDelta
	c.Faults += o.Faults
	c.FedPrepares += o.FedPrepares
	c.FedCommits += o.FedCommits
	c.FedAborts += o.FedAborts
}

// Registry hands out per-node counter blocks and rolls them up into the
// metrics tables the experiment harness prints. The map is guarded for the
// concurrent live runtime; simulation wiring resolves each node's block
// exactly once.
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

// Merge adds every node's counters in o into r. Parallel sweeps give each
// cell a registry of its own (per-cell figures such as probes shed need one)
// and fold it into the shared registry -stats prints.
func (r *Registry) Merge(o *Registry) {
	for _, s := range o.Snapshot() {
		c := r.Node(s.ID)
		c.MsgsSent.Add(s.MsgsSent)
		c.BytesSent.Add(s.BytesSent)
		c.MsgsRecv.Add(s.MsgsRecv)
		c.MsgsDrop.Add(s.MsgsDrop)
		c.ProbesSent.Add(s.ProbesSent)
		c.ProbesDropped.Add(s.ProbesDropped)
		c.ProbesReturned.Add(s.ProbesReturned)
		c.BudgetSpent.Add(s.BudgetSpent)
		c.ProbesRetx.Add(s.ProbesRetx)
		c.ProbesShed.Add(s.ProbesShed)
		c.DHTHops.Add(s.DHTHops)
		c.DiscLookups.Add(s.DiscLookups)
		c.DiscCacheHits.Add(s.DiscCacheHits)
		c.DiscHinted.Add(s.DiscHinted)
		c.DiscJoined.Add(s.DiscJoined)
		c.DiscCarried.Add(s.DiscCarried)
		c.DiscDelta.Add(s.DiscDelta)
		c.Faults.Add(s.Faults)
		c.FedPrepares.Add(s.FedPrepares)
		c.FedCommits.Add(s.FedCommits)
		c.FedAborts.Add(s.FedAborts)
	}
}

// NumNodes returns how many nodes have counter blocks.
func (r *Registry) NumNodes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.nodes)
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
	t.AddRow("messages sent", tot.MsgsSent)
	t.AddRow("bytes sent", tot.BytesSent)
	t.AddRow("messages delivered", tot.MsgsRecv)
	t.AddRow("messages dropped", tot.MsgsDrop)
	t.AddRow("probes sent", tot.ProbesSent)
	t.AddRow("probes dropped", tot.ProbesDropped)
	t.AddRow("probes returned", tot.ProbesReturned)
	t.AddRow("probe budget spent", tot.BudgetSpent)
	t.AddRow("probe retransmits", tot.ProbesRetx)
	t.AddRow("probes shed", tot.ProbesShed)
	t.AddRow("dht hops", tot.DHTHops)
	t.AddRow("discovery lookups", tot.DiscLookups)
	t.AddRow("discovery cache hits", tot.DiscCacheHits)
	t.AddRow("discovery lookups hinted", tot.DiscHinted)
	t.AddRow("discovery lookups joined", tot.DiscJoined)
	t.AddRow("discovery lists carried", tot.DiscCarried)
	t.AddRow("discovery lookups delta", tot.DiscDelta)
	t.AddRow("faults injected", tot.Faults)
	if tot.FedPrepares != 0 || tot.FedCommits != 0 || tot.FedAborts != 0 {
		t.AddRow("fed prepares", tot.FedPrepares)
		t.AddRow("fed commits", tot.FedCommits)
		t.AddRow("fed aborts", tot.FedAborts)
	}
	return t
}

// PerNodeTable lists the top busiest nodes by messages sent (all of them if
// top <= 0), for spotting hot spots. Rows are ordered by traffic, ties by
// node ID, so the table is deterministic.
func (r *Registry) PerNodeTable(title string, top int) *metrics.Table {
	r.mu.Lock()
	type row struct {
		id p2p.NodeID
		c  Counters
	}
	rows := make([]row, 0, len(r.nodes))
	for id, c := range r.nodes {
		rows = append(rows, row{id, c.Snapshot()})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].c.MsgsSent != rows[j].c.MsgsSent {
			return rows[i].c.MsgsSent > rows[j].c.MsgsSent
		}
		return rows[i].id < rows[j].id
	})
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	t := metrics.NewTable(title, "node", "msgs", "bytes", "recv", "probes", "dropped", "returned", "dht-hops")
	for _, r := range rows {
		t.AddRow(int(r.id), r.c.MsgsSent, r.c.BytesSent, r.c.MsgsRecv,
			r.c.ProbesSent, r.c.ProbesDropped, r.c.ProbesReturned, r.c.DHTHops)
	}
	return t
}
