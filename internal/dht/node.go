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

// GetPayload asks the key's root, or the first peer on the route holding a
// copy it vouches for, to return all items stored under the key.
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

// ReplicaMsg copies items stored under Key to a leaf-set neighbor the root
// picked to hold them, with Count, the root's item count after them. One with
// no items tells the holder the root no longer picks it for Key.
type ReplicaMsg struct {
	Key   ID
	Items []any
	Count int
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

	store   map[ID][]any        // allocated on first stored item, with picks and claims
	picks   map[ID][]p2p.NodeID // per key this node is the root of: the leaves copying it
	claims  map[ID]claim        // per key this node holds a copy of for a root
	nextReq uint64
	pending []getReq // lookups in flight, in the order their timers were armed
	fire    func()   // n.timeOut, bound on the first lookup: every lookup timer's callback

	// Trace receives routing events when non-nil; Ctr accumulates the
	// delta-answer counter; Met observes lookup-latency histograms. All are
	// optional and set by the wiring layer.
	Trace obs.Tracer
	Ctr   *obs.NodeCounters
	Met   *obs.Metrics
}

// claim is a holder's standing to answer for a key: who picked it, at what count.
type claim struct {
	root  p2p.NodeID
	count int
}

// getReq is one lookup in flight, held by value in Node.pending.
type getReq struct {
	id   uint64
	key  ID
	span uint64 // composition request the lookup serves, for trace spans
	// One of the two is set; Get's own shape spares it an adapter closure per lookup.
	cb       func(items []any, hops int, ok bool)
	answer   func(Answer)
	cancel   p2p.Timer
	due      time.Duration // host clock at which the armed timer fires
	retried  bool
	timeout  time.Duration
	started  time.Duration // host clock at Get, for the lookup histogram
	firstHop p2p.NodeID    // route used first; the retry avoids it
}

// Answer is one lookup's outcome as GetSpan hands it to its callback: the
// items and hop count, who answered and how many leading items (Base, 0 or
// the held count asked with) it left out as already held, or OK false after
// two timeouts. Key is the key looked up, so one callback, bound once, tells
// its caller's lookups apart.
type Answer struct {
	Key   ID
	Items []any
	Base  int
	From  p2p.NodeID
	Hops  int
	OK    bool
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
// All per-node collections (routing rows, the item store, the lookups in
// flight and their timers' one callback) are allocated on first use, so a
// freshly built node that never stores or looks anything up costs little more
// than its leaf set.
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

// tableSlot reads one routing-table slot without allocating the row: empty
// slots (including wholly unallocated rows) read as Addr == NoNode.
func (n *Node) tableSlot(row, col int) Entry {
	if n.rows == nil || n.rows[row] == nil {
		return Entry{Addr: p2p.NoNode}
	}
	return n.rows[row][col]
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

// knownEntries yields every live entry this node can route through, less
// the table rows before row `from`. The visit order (leaves, then table rows by
// ascending prefix length and digit) matches the eager-array representation
// exactly, so routing decisions — and with them every trace — are unchanged
// by the lazy rows.
func (n *Node) knownEntries(from int, visit func(Entry)) {
	for _, e := range n.leaves {
		if n.alive(e.Addr) {
			visit(e)
		}
	}
	for _, r := range n.rows[min(from, len(n.rows)):] {
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
//
// Table row r holds only entries sharing exactly r digits with self, so an
// entry in a row r < selfPrefix shares r digits with the key, and one in a
// row r > selfPrefix exactly selfPrefix: of the whole table only slot
// (selfPrefix, key's next digit) can extend the prefix, and the first pass
// reads the leaves and that slot, as Pastry does (paper §3). The fallback
// reads the leaves and the rows from selfPrefix on, in the full scan's order.
func (n *Node) nextHopExcluding(key ID, avoid p2p.NodeID) Entry {
	selfPrefix := n.self.ID.CommonPrefix(key)
	best := Entry{Addr: p2p.NoNode}
	bestPrefix := -1
	longer := func(e Entry) {
		if e.Addr == avoid || !n.alive(e.Addr) {
			return
		}
		p := e.ID.CommonPrefix(key)
		if p <= selfPrefix {
			return
		}
		if p > bestPrefix || (p == bestPrefix && Closer(key, e.ID, best.ID)) {
			best, bestPrefix = e, p
		}
	}
	for _, e := range n.leaves {
		longer(e)
	}
	if selfPrefix < NumDigits {
		if e := n.tableSlot(selfPrefix, key.Digit(selfPrefix)); e.Addr != p2p.NoNode {
			longer(e)
		}
	}
	if best.Addr != p2p.NoNode {
		return best
	}
	// Fallback (Pastry's rare case): an entry whose shared prefix is at
	// least as long as self's AND which is strictly closer to the key.
	// Requiring both keeps (prefix, distance) lexicographically monotone
	// along the route, which guarantees termination.
	n.knownEntries(selfPrefix, func(e Entry) {
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

// forwardOrDeliver routes rm on, or delivers it here when this node is the
// key's root or, for a get, holds a copy of the key it can vouch for.
func (n *Node) forwardOrDeliver(rm RouteMsg) {
	next := Entry{Addr: p2p.NoNode}
	if rm.Get.ReqID == 0 || !n.vouches(rm.Key) {
		next = n.nextHop(rm.Key)
	}
	n.routeVia(rm, next)
}

// vouches reports whether this node may answer a get of key from its copy:
// the root that picked it to hold one still does, the copy has at least as
// many items as that root last said it had, and this node would route the get
// to that root (a put reaches another peer while it is down, and one that
// joins above it).
func (n *Node) vouches(key ID) bool {
	c, ok := n.claims[key]
	return ok && len(n.store[key]) >= c.count && n.nextHop(key).Addr == c.root
}

// routeVia forwards rm through next, or delivers it locally when next is
// empty (this node is the root, or answers a get from its copy). It returns
// the hop used, NoNode on local delivery.
func (n *Node) routeVia(rm RouteMsg, next Entry) p2p.NodeID {
	if next.Addr == p2p.NoNode {
		if n.Trace != nil {
			n.Trace.Emit(obs.DHTDeliver(n.host.Now(), n.self.Addr, rm.Span, rm.Hops, payloadKind(rm)))
		}
		n.deliver(rm)
		return p2p.NoNode
	}
	rm.Hops++
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

// deliver handles a routed message for which this node is the root, or a get
// this node answers from a copy it vouches for.
func (n *Node) deliver(rm RouteMsg) {
	switch {
	case rm.Put != nil:
		n.allocStore()
		n.store[rm.Key] = append(n.store[rm.Key], rm.Put.Item)
		n.replicate(rm.Key, 1)
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
		if _, root := n.picks[rm.Key]; root {
			n.replicate(rm.Key, 0) // a pick may have died or come back
		}
	case rm.Join != nil:
		// Send the root's view (self, leaves, table) to the joiner, then
		// adopt it.
		entries := []Entry{n.self}
		n.knownEntries(0, func(e Entry) { entries = append(entries, e) })
		n.host.Send(p2p.Message{
			Type: MsgState, To: rm.Join.New.Addr,
			Size:    routeSize + 24*len(entries),
			Payload: StateMsg{Entries: entries},
		})
		n.AddEntry(rm.Join.New)
	}
}

// replicate keeps copies of key's items on the first Replicas live leaves.
// A leaf newly picked gets the whole list, one still picked the last added
// items (if any), and one no longer picked a notice to stop answering for
// key. Every copy carries the root's item count.
func (n *Node) replicate(key ID, added int) {
	var buf [Replicas]p2p.NodeID
	pick := buf[:0]
	for _, e := range n.leaves {
		if len(pick) < Replicas && n.alive(e.Addr) {
			pick = append(pick, e.Addr)
		}
	}
	old := n.picks[key]
	items := slices.Clip(n.store[key])
	for _, to := range pick {
		switch {
		case !slices.Contains(old, to):
			n.sendReplica(to, ReplicaMsg{Key: key, Items: items, Count: len(items)})
		case added > 0:
			n.sendReplica(to, ReplicaMsg{Key: key, Items: items[len(items)-added:], Count: len(items)})
		}
	}
	for _, to := range old {
		if !slices.Contains(pick, to) {
			n.sendReplica(to, ReplicaMsg{Key: key})
		}
	}
	if old == nil || !slices.Equal(old, pick) {
		n.picks[key] = append([]p2p.NodeID(nil), pick...)
	}
}

func (n *Node) allocStore() {
	if n.store == nil {
		n.store, n.picks, n.claims = make(map[ID][]any), make(map[ID][]p2p.NodeID), make(map[ID]claim)
	}
}

func (n *Node) sendReplica(to p2p.NodeID, rm ReplicaMsg) {
	n.host.Send(p2p.Message{Type: MsgReplica, To: to, Size: routeSize + ItemSize*len(rm.Items), Payload: rm})
}

// Keyed is a stored item that names itself: a transport that decodes each
// message hands a holder fresh pointers to records it has, so a merge compares
// Keyed items by key.
type Keyed interface{ ItemKey() string }

// sameItem reports whether a and b are one stored item: equal keys if both are
// Keyed, == otherwise.
func sameItem(a, b any) bool {
	ka, okA := a.(Keyed)
	kb, okB := b.(Keyed)
	if okA && okB {
		return ka.ItemKey() == kb.ItemKey()
	}
	return a == b
}

// onReplica merges a root's copy into this node's store and claims the key
// for that root at the count it sent, or drops the claim on a stop notice.
// The merge is idempotent however the copy arrived: it adds only items the
// store does not hold, a Keyed item by its key (a record stored twice at the
// root, as after a re-registration, is held once, the first), any other by
// ==. A root of the key (one that copied it before, and then missed items
// while down) copies what it gained on.
func (n *Node) onReplica(_ p2p.Node, msg p2p.Message) {
	rm := msg.Payload.(ReplicaMsg)
	if len(rm.Items) == 0 {
		delete(n.claims, rm.Key)
		return
	}
	n.allocStore()
	have := n.store[rm.Key]
	had := len(have)
	for _, it := range rm.Items {
		if !slices.ContainsFunc(have, func(h any) bool { return sameItem(h, it) }) {
			have = append(have, it)
		}
	}
	n.store[rm.Key] = have
	n.claims[rm.Key] = claim{root: msg.From, count: rm.Count}
	if _, root := n.picks[rm.Key]; root && len(have) > had {
		n.replicate(rm.Key, len(have)-had)
	}
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
	n.get(getReq{key: key, cb: cb, timeout: timeout}, p2p.NoNode, 0)
}

// GetSpan is Get with the composition-request ID the lookup serves attached
// (its routing and timeout events carry span, so trace span trees claim the
// lookup), handed directly to via, the peer that answered an earlier lookup of
// key (NoNode = route as Get does), with the number of items of that answer the
// caller still holds (0 = none). cb gets the whole Answer; a caller that binds
// it once reads which lookup it answers from Answer.Key.
func (n *Node) GetSpan(key ID, span uint64, via p2p.NodeID, held int, timeout time.Duration, cb func(Answer)) {
	n.get(getReq{key: key, span: span, answer: cb, timeout: timeout}, via, held)
}

func (n *Node) get(req getReq, via p2p.NodeID, held int) {
	n.nextReq++
	req.id = n.nextReq
	req.started = n.host.Now()
	if n.fire == nil {
		n.fire = n.timeOut
	}
	n.arm(&req)
	req.firstHop = n.sendGet(req.id, req.key, req.span, via, p2p.NoNode, held)
	n.pending = append(n.pending, req)
}

// arm starts req's timer with req's own delay, as a timer of its own would, so
// the runtime's timer stream is one timer per try whatever else is in flight.
func (n *Node) arm(req *getReq) {
	req.cancel = n.host.After(req.timeout, n.fire)
	req.due = n.host.Now() + max(req.timeout, 0)
}

// sendGet sends a get toward key's root and returns the hop actually used:
// none when this node vouches for a copy of key, via when it names a live peer
// other than self (which routes on unless it answers), else the routing
// table's choice avoiding one first hop (NoNode = unconstrained). When
// exclusion leaves no viable route the unexcluded one is used: forcing local
// delivery at a node without a copy would fabricate an empty result.
// held items of via's earlier answer need not be sent again (GetPayload.Held).
func (n *Node) sendGet(reqID uint64, key ID, span uint64, via, avoid p2p.NodeID, held int) p2p.NodeID {
	next := Entry{Addr: via}
	switch {
	case n.vouches(key):
		next.Addr = p2p.NoNode // the asker holds a copy: it answers itself
	case via == p2p.NoNode || via == n.self.Addr || !n.alive(via):
		next = n.nextHopExcluding(key, avoid)
		if next.Addr == p2p.NoNode && avoid != p2p.NoNode {
			next = n.nextHop(key)
		}
	}
	return n.routeVia(RouteMsg{Key: key, Span: span, Get: GetPayload{ReqID: reqID, Origin: n.self.Addr, Root: via, Held: held}}, next)
}

// done reports a finished lookup to whichever callback it was issued with.
func (req *getReq) done(a Answer) {
	if req.cb != nil {
		req.cb(a.Items, a.Hops, a.OK)
		return
	}
	req.answer(a)
}

// take removes pending lookup i and returns it.
func (n *Node) take(i int) getReq {
	req := n.pending[i]
	n.pending = slices.Delete(n.pending, i, i+1)
	return req
}

// timeOut is every lookup timer's callback. It times out the lookup due
// first, of those due at once the one armed first: the order the simulator
// fires their timers in, so each firing is the timed-out lookup's own. A
// runtime that fires near-equal timers out of order still times out every
// lookup once, the one due first on each firing.
func (n *Node) timeOut() {
	i := -1
	for j := range n.pending {
		if i < 0 || n.pending[j].due < n.pending[i].due {
			i = j
		}
	}
	if i < 0 {
		return
	}
	req := n.take(i)
	if !req.retried {
		req.retried = true
		if n.Trace != nil {
			n.Trace.Emit(obs.DHTGetTimeout(n.host.Now(), n.self.Addr, req.span, true))
		}
		n.arm(&req)
		n.pending = append(n.pending, req) // armed last
		// Retry via a different routing-table entry: the first hop may be
		// unreachable (partitioned, overloaded) without being seen as dead.
		// Whoever the re-route reaches is asked for the whole list.
		n.sendGet(req.id, req.key, req.span, p2p.NoNode, req.firstHop, 0)
		return
	}
	if n.Trace != nil {
		n.Trace.Emit(obs.DHTGetTimeout(n.host.Now(), n.self.Addr, req.span, false))
	}
	req.done(Answer{Key: req.key, From: p2p.NoNode})
}

func (n *Node) onGetResp(_ p2p.Node, msg p2p.Message) {
	gr := msg.Payload.(GetResp)
	i := 0
	for i < len(n.pending) && n.pending[i].id != gr.ReqID {
		i++
	}
	if i == len(n.pending) {
		return // late duplicate after timeout
	}
	req := n.take(i)
	req.cancel.Stop()
	if n.Met != nil {
		n.Met.DHTLookup.ObserveDuration(n.host.Now() - req.started)
	}
	if gr.Base > 0 && n.Ctr != nil {
		n.Ctr.DiscDelta.Add(1)
	}
	req.done(Answer{Key: req.key, Items: gr.Items, Base: gr.Base, From: msg.From, Hops: gr.Hops, OK: true})
}
