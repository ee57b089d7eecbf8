package dht

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
)

// Protocol message types.
const (
	MsgRoute    = "dht.route"
	MsgGetResp  = "dht.get.resp"
	MsgState    = "dht.state"
	MsgAnnounce = "dht.announce"
	MsgReplica  = "dht.replica"
)

const (
	// LeafSize is the number of numerically closest neighbors each node
	// tracks.
	LeafSize = 16
	// Replicas is how many leaf-set neighbors receive a copy of each stored
	// item, so lookups survive root failures.
	Replicas = 4
	// routeSize approximates the wire size of a routed message header.
	routeSize = 64
	// ItemSize is the wire size of one stored item in a get response — and of
	// one component's meta-data wherever else a duplicate list travels, so
	// "asked for" and "handed" lists are charged alike.
	ItemSize = 96
)

// Entry pairs a DHT identifier with the transport address of the node that
// owns it.
type Entry struct {
	ID   ID
	Addr p2p.NodeID
}

// RouteMsg is the envelope routed greedily toward Key. Exactly one of Put,
// Get, Join is set; Get is held by value and set when its ReqID is not 0,
// because a lookup is re-enveloped at every hop and its payload should not
// be an object of its own. Span carries the composition-request ID the
// lookup is serving (0 for maintenance traffic) so every hop's trace event
// can be attributed to the request's span tree.
type RouteMsg struct {
	Key  ID
	Hops int
	Span uint64
	Put  *PutPayload
	Get  GetPayload
	Join *JoinPayload
}

// PutPayload stores one item under the routed key.
type PutPayload struct {
	Item any
	Size int
}

// GetPayload asks the key's root to return all items stored under the key.
// ReqID numbers the requester's lookups from 1. Held > 0 says the requester
// still has the first Held items Root's store answered it with earlier: Root
// itself, if it holds at least as many, sends only the ones after them.
type GetPayload struct {
	ReqID  uint64
	Origin p2p.NodeID
	Root   p2p.NodeID
	Held   int
}

// JoinPayload introduces a new node; the key's root replies with its state.
type JoinPayload struct {
	New Entry
}

// GetResp returns the stored items directly to the requester, less the first
// Base the request said it holds.
type GetResp struct {
	ReqID uint64
	Items []any
	Base  int
	Hops  int
}

// StateMsg transfers a set of known entries (root → joiner).
type StateMsg struct {
	Entries []Entry
}

// AnnounceMsg advertises a (possibly new) node to a peer.
type AnnounceMsg struct {
	Who Entry
}

// ReplicaMsg pushes a stored item to a leaf-set neighbor for fault
// tolerance.
type ReplicaMsg struct {
	Key  ID
	Item any
	Size int
}

// Node is one DHT participant bound to a transport node. All methods must be
// called from the host's event context (handler or timer), which both
// runtimes guarantee.
type Node struct {
	host  p2p.Node
	self  Entry
	alive func(p2p.NodeID) bool

	leaves []Entry     // sorted by circular distance to self, <= LeafSize
	rows   []*tableRow // routing table rows; nil slice/row slots are empty

	store   map[ID][]any // allocated on first stored item
	nextReq uint64
	pending map[uint64]*getReq // allocated on first in-flight lookup

	// Trace receives routing events when non-nil; Ctr accumulates hop
	// counters; Met observes lookup-latency histograms. All are optional
	// and set by the wiring layer.
	Trace obs.Tracer
	Ctr   *obs.NodeCounters
	Met   *obs.Metrics
}

type getReq struct {
	key  ID
	span uint64 // composition request the lookup serves, for trace spans
	// One of the two is set; Get's own shape spares it an adapter closure per lookup.
	cb       func(items []any, hops int, ok bool)
	cbFrom   func(items []any, base int, from p2p.NodeID, hops int, ok bool)
	cancel   p2p.CancelFunc
	retried  bool
	timeout  time.Duration
	started  time.Duration // host clock at Get, for the lookup histogram
	firstHop p2p.NodeID    // route used first; the retry avoids it
}

// tableRow is one routing-table row: the known entry (if any) for each next
// digit. Empty slots have Addr == p2p.NoNode. Rows are allocated lazily on
// first use: with random identifiers only the first ~log16(n) rows ever hold
// an entry, so the eager [NumDigits][16]Entry array this replaces (12 KB per
// node) wasted three orders of magnitude of routing-table space — the
// difference between a 100,000-peer discovery plane fitting in a few hundred
// MB and it needing over a gigabyte.
type tableRow [16]Entry

// New creates a DHT node on host. alive is the liveness oracle standing in
// for Pastry's neighbor keepalives: routing skips entries it reports dead.
// A nil alive treats every peer as up.
//
// All per-node collections (routing rows, the item store, the pending-lookup
// map) are allocated on first use, so a freshly built node that never stores
// or looks anything up costs little more than its leaf set.
func New(host p2p.Node, alive func(p2p.NodeID) bool) *Node {
	if alive == nil {
		alive = func(p2p.NodeID) bool { return true }
	}
	n := &Node{
		host:  host,
		self:  Entry{ID: FromNode(host.ID()), Addr: host.ID()},
		alive: alive,
	}
	host.Handle(MsgRoute, n.onRoute)
	host.Handle(MsgGetResp, n.onGetResp)
	host.Handle(MsgState, n.onState)
	host.Handle(MsgAnnounce, n.onAnnounce)
	host.Handle(MsgReplica, n.onReplica)
	return n
}

// Self returns this node's DHT identifier.
func (n *Node) Self() ID { return n.self.ID }

// Addr returns this node's transport address.
func (n *Node) Addr() p2p.NodeID { return n.self.Addr }

// NumLeaves returns the current leaf-set size (for tests and diagnostics).
func (n *Node) NumLeaves() int { return len(n.leaves) }

// StoredUnder returns how many items this node stores under key (including
// replicas).
func (n *Node) StoredUnder(key ID) int { return len(n.store[key]) }

// tableRow returns the routing-table row for the given prefix length,
// allocating it (and the row index) on first use. Fresh slots read as empty
// (Addr == p2p.NoNode).
func (n *Node) tableRow(row int) *tableRow {
	if n.rows == nil {
		n.rows = make([]*tableRow, NumDigits)
	}
	r := n.rows[row]
	if r == nil {
		r = new(tableRow)
		for i := range r {
			r[i].Addr = p2p.NoNode
		}
		n.rows[row] = r
	}
	return r
}

// AddEntry incorporates a known (id, addr) pair into the leaf set and
// routing table. It is the primitive the dynamic join/announce paths and the
// legacy all-pairs build use; the sorted-ring Build writes the same slots
// directly.
func (n *Node) AddEntry(e Entry) {
	if e.Addr == n.self.Addr {
		return
	}
	// Routing table slot by common prefix and next digit.
	row := n.self.ID.CommonPrefix(e.ID)
	if row < NumDigits {
		col := e.ID.Digit(row)
		slot := &n.tableRow(row)[col]
		if slot.Addr == p2p.NoNode || !n.alive(slot.Addr) {
			*slot = e
		}
	}
	// Leaf set: insert, dedup, keep the LeafSize closest.
	for _, l := range n.leaves {
		if l.Addr == e.Addr {
			return
		}
	}
	n.leaves = append(n.leaves, e)
	self := n.self.ID
	sortEntries(n.leaves, func(a, b Entry) bool { return Closer(self, a.ID, b.ID) })
	if len(n.leaves) > LeafSize {
		n.leaves = n.leaves[:LeafSize]
	}
}

func sortEntries(s []Entry, less func(a, b Entry) bool) {
	// Insertion sort: leaf sets are tiny and mostly sorted.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// knownEntries yields every live entry this node can route through. The
// visit order (leaves, then table rows by ascending prefix length and digit)
// matches the eager-array representation exactly, so routing decisions — and
// with them every trace — are unchanged by the lazy rows.
func (n *Node) knownEntries(visit func(Entry)) {
	for _, e := range n.leaves {
		if n.alive(e.Addr) {
			visit(e)
		}
	}
	for _, r := range n.rows {
		if r == nil {
			continue
		}
		for col := range r {
			e := r[col]
			if e.Addr != p2p.NoNode && n.alive(e.Addr) {
				visit(e)
			}
		}
	}
}

// nextHop picks the Pastry forwarding target for key: prefer entries with a
// strictly longer shared prefix than self (longest prefix, then closest);
// otherwise any entry strictly closer to the key than self. A zero-value
// return (Addr == NoNode) means self is the root.
func (n *Node) nextHop(key ID) Entry { return n.nextHopExcluding(key, p2p.NoNode) }

// nextHopExcluding is nextHop with one transport address struck from the
// candidate set — the lookup-retry path uses it to route around a first
// hop that swallowed the previous attempt (e.g. across a partition the
// liveness oracle cannot see). avoid == NoNode excludes nothing.
func (n *Node) nextHopExcluding(key ID, avoid p2p.NodeID) Entry {
	selfPrefix := n.self.ID.CommonPrefix(key)
	best := Entry{Addr: p2p.NoNode}
	bestPrefix := -1
	n.knownEntries(func(e Entry) {
		if e.Addr == avoid {
			return
		}
		p := e.ID.CommonPrefix(key)
		if p <= selfPrefix {
			return
		}
		if p > bestPrefix || (p == bestPrefix && Closer(key, e.ID, best.ID)) {
			best, bestPrefix = e, p
		}
	})
	if best.Addr != p2p.NoNode {
		return best
	}
	// Fallback (Pastry's rare case): an entry whose shared prefix is at
	// least as long as self's AND which is strictly closer to the key.
	// Requiring both keeps (prefix, distance) lexicographically monotone
	// along the route, which guarantees termination.
	n.knownEntries(func(e Entry) {
		if e.Addr == avoid {
			return
		}
		if e.ID.CommonPrefix(key) >= selfPrefix && Closer(key, e.ID, n.self.ID) {
			if best.Addr == p2p.NoNode || Closer(key, e.ID, best.ID) {
				best = e
			}
		}
	})
	return best
}

func (n *Node) forwardOrDeliver(rm RouteMsg) {
	n.routeVia(rm, n.nextHop(rm.Key))
}

// routeVia forwards rm through next, or delivers it locally when next is
// empty (this node is the root). It returns the hop used, NoNode on local
// delivery.
func (n *Node) routeVia(rm RouteMsg, next Entry) p2p.NodeID {
	if next.Addr == p2p.NoNode {
		if n.Trace != nil {
			n.Trace.Emit(obs.DHTDeliver(n.host.Now(), n.self.Addr, rm.Span, rm.Hops, payloadKind(rm)))
		}
		n.deliver(rm)
		return p2p.NoNode
	}
	rm.Hops++
	if n.Ctr != nil {
		n.Ctr.DHTHops.Add(1)
	}
	if n.Trace != nil {
		n.Trace.Emit(obs.DHTHop(n.host.Now(), n.self.Addr, next.Addr, rm.Span, rm.Hops, payloadKind(rm)))
	}
	n.host.Send(p2p.Message{Type: MsgRoute, To: next.Addr, Size: routeSize + payloadSize(rm), Payload: rm})
	return next.Addr
}

func payloadSize(rm RouteMsg) int {
	switch {
	case rm.Put != nil:
		return rm.Put.Size
	case rm.Get.Held > 0:
		return 24 // a get, plus the peer and count of the items held
	case rm.Get.ReqID != 0:
		return 16
	case rm.Join != nil:
		return 24
	}
	return 0
}

func payloadKind(rm RouteMsg) string {
	switch {
	case rm.Put != nil:
		return "put"
	case rm.Get.ReqID != 0:
		return "get"
	case rm.Join != nil:
		return "join"
	}
	return "?"
}

func (n *Node) onRoute(_ p2p.Node, msg p2p.Message) {
	rm := msg.Payload.(RouteMsg)
	n.forwardOrDeliver(rm)
}

// deliver handles a routed message for which this node is the root.
func (n *Node) deliver(rm RouteMsg) {
	switch {
	case rm.Put != nil:
		if n.store == nil {
			n.store = make(map[ID][]any)
		}
		n.store[rm.Key] = append(n.store[rm.Key], rm.Put.Item)
		n.replicate(rm.Key, rm.Put.Item, rm.Put.Size)
	case rm.Get.ReqID != 0:
		// The response shares the store's backing array: the store only ever
		// appends, and clipping makes any append by the reader copy first. For
		// the same reason the items the requester holds from this very store
		// are still its first Held, and only the rest travel.
		items, base := slices.Clip(n.store[rm.Key]), 0
		if rm.Get.Root == n.self.Addr && rm.Get.Held <= len(items) {
			base = rm.Get.Held
		}
		n.host.Send(p2p.Message{
			Type: MsgGetResp, To: rm.Get.Origin,
			Size:    routeSize + ItemSize*(len(items)-base),
			Payload: GetResp{ReqID: rm.Get.ReqID, Items: items[base:], Base: base, Hops: rm.Hops},
		})
	case rm.Join != nil:
		// Send the root's view (self, leaves, table) to the joiner, then
		// adopt it.
		entries := []Entry{n.self}
		n.knownEntries(func(e Entry) { entries = append(entries, e) })
		n.host.Send(p2p.Message{
			Type: MsgState, To: rm.Join.New.Addr,
			Size:    routeSize + 24*len(entries),
			Payload: StateMsg{Entries: entries},
		})
		n.AddEntry(rm.Join.New)
	}
}

func (n *Node) replicate(key ID, item any, size int) {
	sent := 0
	for _, e := range n.leaves {
		if sent >= Replicas {
			break
		}
		if !n.alive(e.Addr) {
			continue
		}
		n.host.Send(p2p.Message{
			Type: MsgReplica, To: e.Addr,
			Size:    routeSize + size,
			Payload: ReplicaMsg{Key: key, Item: item, Size: size},
		})
		sent++
	}
}

func (n *Node) onReplica(_ p2p.Node, msg p2p.Message) {
	rm := msg.Payload.(ReplicaMsg)
	for _, it := range n.store[rm.Key] {
		if it == rm.Item {
			return // idempotent for comparable items
		}
	}
	if n.store == nil {
		n.store = make(map[ID][]any)
	}
	n.store[rm.Key] = append(n.store[rm.Key], rm.Item)
}

func (n *Node) onState(_ p2p.Node, msg p2p.Message) {
	sm := msg.Payload.(StateMsg)
	for _, e := range sm.Entries {
		n.AddEntry(e)
	}
	// Announce ourselves to everyone we just learned about so their state
	// reflects the new membership.
	for _, e := range sm.Entries {
		if e.Addr == n.self.Addr {
			continue
		}
		n.host.Send(p2p.Message{
			Type: MsgAnnounce, To: e.Addr,
			Size:    routeSize + 24,
			Payload: AnnounceMsg{Who: n.self},
		})
	}
}

func (n *Node) onAnnounce(_ p2p.Node, msg p2p.Message) {
	n.AddEntry(msg.Payload.(AnnounceMsg).Who)
}

// Join bootstraps this node into the ring through any existing member: a
// join request routes to the root of the joiner's own identifier, whose
// state seeds the joiner's tables.
func (n *Node) Join(bootstrap p2p.NodeID) {
	n.host.Send(p2p.Message{
		Type: MsgRoute, To: bootstrap,
		Size:    routeSize + 24,
		Payload: RouteMsg{Key: n.self.ID, Join: &JoinPayload{New: n.self}},
	})
}

// Put stores item under key on the key's root (plus replicas). size is the
// approximate serialized size for overhead accounting.
func (n *Node) Put(key ID, item any, size int) {
	n.forwardOrDeliver(RouteMsg{Key: key, Put: &PutPayload{Item: item, Size: size}})
}

// Get fetches all items stored under key. cb fires exactly once: with the
// items and hop count on success, or ok=false after two timeouts. The call
// is asynchronous; cb runs on this node's event context.
func (n *Node) Get(key ID, timeout time.Duration, cb func(items []any, hops int, ok bool)) {
	n.get(&getReq{key: key, cb: cb, timeout: timeout}, p2p.NoNode, 0)
}

// GetSpan is Get with the composition-request ID the lookup serves attached
// (its routing and timeout events carry span, so trace span trees claim the
// lookup), handed directly to via, the peer that answered an earlier lookup of
// key (NoNode = route as Get does), with the number of items of that answer the
// caller still holds (0 = none). cb also learns who answered this one and how
// many leading items (base, 0 or held) the answer left out as already held.
func (n *Node) GetSpan(key ID, span uint64, via p2p.NodeID, held int, timeout time.Duration, cb func(items []any, base int, from p2p.NodeID, hops int, ok bool)) {
	n.get(&getReq{key: key, span: span, cbFrom: cb, timeout: timeout}, via, held)
}

func (n *Node) get(req *getReq, via p2p.NodeID, held int) {
	n.nextReq++
	id := n.nextReq
	req.started = n.host.Now()
	if n.pending == nil {
		n.pending = make(map[uint64]*getReq)
	}
	n.pending[id] = req
	req.cancel = n.host.After(req.timeout, func() { n.getTimeout(id) })
	req.firstHop = n.sendGet(id, req.key, req.span, via, p2p.NoNode, held)
}

// sendGet sends a get toward key's root and returns the hop actually used:
// via when it names a live peer other than self (which routes on unless it is
// the root), else the routing table's choice avoiding one first hop (NoNode =
// unconstrained). When exclusion leaves no viable route the unexcluded one is
// used: forcing local delivery at a non-root node would fabricate an empty result.
// held items of via's earlier answer need not be sent again (GetPayload.Held).
func (n *Node) sendGet(reqID uint64, key ID, span uint64, via, avoid p2p.NodeID, held int) p2p.NodeID {
	next := Entry{Addr: via}
	if via == p2p.NoNode || via == n.self.Addr || !n.alive(via) {
		next = n.nextHopExcluding(key, avoid)
		if next.Addr == p2p.NoNode && avoid != p2p.NoNode {
			next = n.nextHop(key)
		}
	}
	return n.routeVia(RouteMsg{Key: key, Span: span, Get: GetPayload{ReqID: reqID, Origin: n.self.Addr, Root: via, Held: held}}, next)
}

// done reports a finished lookup to whichever callback it was issued with.
func (req *getReq) done(items []any, base int, from p2p.NodeID, hops int, ok bool) {
	if req.cb != nil {
		req.cb(items, hops, ok)
		return
	}
	req.cbFrom(items, base, from, hops, ok)
}

func (n *Node) getTimeout(id uint64) {
	req, ok := n.pending[id]
	if !ok {
		return
	}
	if !req.retried {
		req.retried = true
		if n.Trace != nil {
			n.Trace.Emit(obs.DHTGetTimeout(n.host.Now(), n.self.Addr, req.span, true))
		}
		req.cancel = n.host.After(req.timeout, func() { n.getTimeout(id) })
		// Retry via a different routing-table entry: the first hop may be
		// unreachable (partitioned, overloaded) without being seen as dead.
		// Whoever the re-route reaches is asked for the whole list.
		n.sendGet(id, req.key, req.span, p2p.NoNode, req.firstHop, 0)
		return
	}
	delete(n.pending, id)
	if n.Trace != nil {
		n.Trace.Emit(obs.DHTGetTimeout(n.host.Now(), n.self.Addr, req.span, false))
	}
	req.done(nil, 0, p2p.NoNode, 0, false)
}

func (n *Node) onGetResp(_ p2p.Node, msg p2p.Message) {
	gr := msg.Payload.(GetResp)
	req, ok := n.pending[gr.ReqID]
	if !ok {
		return // late duplicate after timeout
	}
	delete(n.pending, gr.ReqID)
	req.cancel()
	if n.Met != nil {
		n.Met.DHTLookup.ObserveDuration(n.host.Now() - req.started)
	}
	if gr.Base > 0 && n.Ctr != nil {
		n.Ctr.DiscDelta.Add(1)
	}
	req.done(gr.Items, gr.Base, msg.From, gr.Hops, true)
}
