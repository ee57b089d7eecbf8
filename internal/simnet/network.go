package simnet

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
)

// LatencyFunc models one-way message latency between two peers.
type LatencyFunc func(from, to p2p.NodeID) time.Duration

// ProcDelayFunc models receiver-side processing delay: the extra time a
// message of the given type spends queued at the destination before its
// handler runs. The overload control plane backs it with a utilization-driven
// M/M/1 model (qos.LoadModel); nil means processing is free, today's
// behavior. The function must be deterministic in the simulation state for
// traces to stay byte-identical per seed.
type ProcDelayFunc func(to p2p.NodeID, msgType string) time.Duration

// Stats accumulates network-level overhead counters. The experiments use
// these to compare SpiderNet's probing overhead with the baselines'
// flooding / global-state-update overhead.
type Stats struct {
	MessagesSent int64
	BytesSent    int64
	Delivered    int64
	Dropped      int64 // destination dead, unknown, or crashed since send
	Unhandled    int64 // delivered but no handler registered
	Faulted      int64 // killed at send time by injected loss or partition
	Duplicated   int64 // extra copies injected by duplication faults
	ByType       map[string]int64
	BytesByType  map[string]int64 // BytesSent split like ByType
}

// Network is the simulated message-passing layer connecting simNodes. All
// operation happens on the owning Sim's event loop.
//
// The node table is one slice indexed directly by NodeID — IDs are the dense
// 0..n−1 p2p.NodeID promises — so lookups on the send/deliver hot path cost
// an array index, and a million registered peers cost one flat pointer slice.
type Network struct {
	sim     *Sim
	rng     *rand.Rand
	latency LatencyFunc
	dense   []*simNode // nodes with IDs in [0, len); nil = unregistered
	count   int
	stats   Stats
	trace   obs.Tracer
	obsReg  *obs.Registry
	met     *obs.Metrics
	faults  *faultState   // nil unless SetFaults installed a plan
	proc    ProcDelayFunc // nil unless SetProcDelay installed a load model

	// Delivery records are pooled and dispatched through one long-lived
	// ScheduleCall function, so a message in flight costs no allocation
	// beyond its (recycled) record — the difference between an idle large
	// network and a garbage-collector workout.
	delPool []*delivery
	delFn   func(any)
}

// delivery is the pooled in-flight message record: the payload of one
// scheduled deliver call.
type delivery struct {
	msg   p2p.Message
	epoch uint64
	known bool
}

// NewNetwork creates a network whose message delays come from latency and
// whose randomness comes from rng (shared by all nodes; determinism follows
// from the single-threaded event loop).
func NewNetwork(sim *Sim, latency LatencyFunc, rng *rand.Rand) *Network {
	nw := &Network{
		sim:     sim,
		rng:     rng,
		latency: latency,
	}
	nw.ResetStats()
	nw.delFn = func(arg any) {
		rec := arg.(*delivery)
		msg, epoch, known := rec.msg, rec.epoch, rec.known
		rec.msg = p2p.Message{} // drop payload references before pooling
		nw.delPool = append(nw.delPool, rec)
		nw.deliver(msg, epoch, known)
	}
	return nw
}

// node looks up a registered node, nil if unknown.
func (nw *Network) node(id p2p.NodeID) *simNode {
	if id >= 0 && int(id) < len(nw.dense) {
		return nw.dense[id]
	}
	return nil
}

// scheduleDelivery queues msg for delivery after d using a pooled record.
func (nw *Network) scheduleDelivery(d time.Duration, msg p2p.Message, epoch uint64, known bool) {
	var rec *delivery
	if n := len(nw.delPool); n > 0 {
		rec = nw.delPool[n-1]
		nw.delPool[n-1] = nil
		nw.delPool = nw.delPool[:n-1]
	} else {
		rec = &delivery{}
	}
	rec.msg, rec.epoch, rec.known = msg, epoch, known
	nw.sim.ScheduleCall(d, nw.delFn, rec)
}

// ConstantLatency returns a LatencyFunc with a fixed one-way delay,
// convenient in tests.
func ConstantLatency(d time.Duration) LatencyFunc {
	return func(_, _ p2p.NodeID) time.Duration { return d }
}

// Sim returns the scheduler driving this network.
func (nw *Network) Sim() *Sim { return nw.sim }

// SetObs attaches the observability subsystem: trace (may be nil) receives
// network-level events, reg (may be nil) accumulates per-node message and
// byte counters, met (may be nil) observes wire-level histograms. Call
// before AddNode so nodes cache their counter blocks.
func (nw *Network) SetObs(trace obs.Tracer, reg *obs.Registry, met *obs.Metrics) {
	nw.trace = trace
	nw.obsReg = reg
	nw.met = met
	if reg == nil {
		return
	}
	for _, n := range nw.dense {
		if n != nil && n.ctr == nil {
			n.ctr = reg.Node(n.id)
		}
	}
}

// SetProcDelay installs a receiver-side processing-delay model (nil removes
// it). The delay is computed at send time from the destination's current
// state and added to the link latency, so a loaded peer serves probes and
// session traffic more slowly — the overload regime the scale experiment
// drives.
func (nw *Network) SetProcDelay(f ProcDelayFunc) { nw.proc = f }

// Stats returns a snapshot of the overhead counters.
func (nw *Network) Stats() Stats {
	s := nw.stats
	s.ByType, s.BytesByType = maps.Clone(s.ByType), maps.Clone(s.BytesByType)
	return s
}

// ResetStats zeroes the overhead counters.
func (nw *Network) ResetStats() {
	nw.stats = Stats{ByType: make(map[string]int64), BytesByType: make(map[string]int64)}
}

// AddNode creates and registers a live node with the given ID. The table
// grows to the highest ID + 1; a negative ID panics.
func (nw *Network) AddNode(id p2p.NodeID) p2p.Node {
	if id < 0 {
		panic(fmt.Sprintf("simnet: negative node ID %d", id))
	}
	if nw.node(id) != nil {
		panic(fmt.Sprintf("simnet: duplicate node %d", id))
	}
	n := &simNode{id: id, net: nw, alive: true}
	if nw.obsReg != nil {
		n.ctr = nw.obsReg.Node(id)
	}
	if int(id) >= len(nw.dense) {
		// append grows capacity geometrically, so n sequential adds copy
		// O(n) slots in total.
		nw.dense = append(nw.dense, make([]*simNode, int(id)+1-len(nw.dense))...)
	}
	nw.dense[id] = n
	nw.count++
	return n
}

// Node returns the node with the given ID, or nil.
func (nw *Network) Node(id p2p.NodeID) p2p.Node {
	n := nw.node(id)
	if n == nil {
		return nil
	}
	return n
}

// NumNodes returns the number of registered nodes (alive or failed).
func (nw *Network) NumNodes() int { return nw.count }

// Fail marks a node as crashed: in-flight and future messages to it are
// dropped and its timers wait for it to recover. Handlers stay registered so
// the node can be recovered later.
func (nw *Network) Fail(id p2p.NodeID) {
	if n := nw.node(id); n != nil && n.alive {
		n.alive = false
		n.epoch++
		if nw.trace != nil {
			nw.trace.Emit(obs.NodeDown(nw.sim.Now(), id))
		}
	}
}

// Recover brings a failed node back up. Protocol state on the node is
// whatever the protocol structs still hold, and the timers that came due
// while it was down fire now, in due order, so soft state (§5) expires as if
// the node had never crashed.
func (nw *Network) Recover(id p2p.NodeID) {
	if n := nw.node(id); n != nil && !n.alive {
		n.alive = true
		if nw.trace != nil {
			nw.trace.Emit(obs.NodeUp(nw.sim.Now(), id))
		}
		for len(n.parked) > 0 && n.alive { // a timer may stop another
			e := n.parked[0]
			n.parked = slices.Delete(n.parked, 0, 1)
			nw.sim.fire(e)
		}
	}
}

// Alive reports whether the node exists and is up.
func (nw *Network) Alive(id p2p.NodeID) bool {
	n := nw.node(id)
	return n != nil && n.alive
}

func (nw *Network) send(msg p2p.Message) {
	nw.stats.MessagesSent++
	nw.stats.BytesSent += int64(msg.Size)
	nw.stats.ByType[msg.Type]++
	nw.stats.BytesByType[msg.Type] += int64(msg.Size)
	if nw.met != nil {
		nw.met.WireBytes.Observe(float64(msg.Size))
	}
	// Capture the destination's epoch now: a message in flight when its
	// destination crashes must not surface after a later Recover (Fail
	// promises in-flight messages are dropped).
	epoch, known := uint64(0), false
	if dst := nw.node(msg.To); dst != nil {
		epoch, known = dst.epoch, true
	}
	d := nw.latency(msg.From, msg.To)
	if nw.proc != nil {
		// Receiver-side processing delay, evaluated at send time from the
		// destination's current load. Duplicated fault copies below reuse d,
		// so they ride the same queueing delay as the original.
		d += nw.proc(msg.To, msg.Type)
	}
	if fs := nw.faults; fs != nil {
		// Fixed evaluation order — partition, loss, jitter, dup — with a
		// draw consumed only when the matching rate is non-zero, so plans
		// that differ in one knob replay the rest of the stream unchanged.
		if fs.partitioned(msg.From, msg.To, nw.sim.Now()) {
			nw.stats.Faulted++
			nw.fault(msg, obs.FaultPartition)
			return
		}
		lf := fs.link(msg.From, msg.To)
		if lf.Loss > 0 && fs.frng.Float64() < lf.Loss {
			nw.stats.Faulted++
			nw.fault(msg, obs.FaultLoss)
			return
		}
		if lf.Jitter > 0 {
			if extra := time.Duration(fs.frng.Int63n(int64(lf.Jitter) + 1)); extra > 0 {
				d += extra
				nw.fault(msg, obs.FaultJitter)
			}
		}
		if lf.Dup > 0 && fs.frng.Float64() < lf.Dup {
			// The copy rides the already-drawn base delay (never the main
			// RNG) plus its own jitter, and shares the captured epoch.
			dd := d
			if lf.Jitter > 0 {
				dd += time.Duration(fs.frng.Int63n(int64(lf.Jitter) + 1))
			}
			nw.stats.Duplicated++
			nw.fault(msg, obs.FaultDup)
			nw.scheduleDelivery(dd, msg, epoch, known)
		}
	}
	nw.scheduleDelivery(d, msg, epoch, known)
}

// fault records one injected fault in the trace.
func (nw *Network) fault(msg p2p.Message, kind string) {
	if nw.trace != nil {
		nw.trace.Emit(obs.NetFault(nw.sim.Now(), msg.From, msg.To, kind, msg.Type, msg.Size, msg.UID))
	}
}

func (nw *Network) deliver(msg p2p.Message, epoch uint64, known bool) {
	dst := nw.node(msg.To)
	if dst == nil || !dst.alive || (known && dst.epoch != epoch) {
		nw.stats.Dropped++
		if nw.trace != nil {
			nw.trace.Emit(obs.NetDrop(nw.sim.Now(), msg.From, msg.To, msg.Type, msg.Size, msg.UID))
		}
		return
	}
	h := dst.handler(msg.Type)
	if h == nil {
		nw.stats.Unhandled++
		return
	}
	nw.stats.Delivered++
	if dst.ctr != nil {
		dst.ctr.MsgsRecv.Add(1)
	}
	h(dst, msg)
}

// simNode implements p2p.Node on the event loop. Handlers live in a small
// slice scanned linearly: protocols register a handful of message types, so
// the scan beats a per-node map in both space (a map with a few entries costs
// several hundred bytes before its buckets) and lookup time, and an idle node
// carries no map header at all.
type simNode struct {
	id       p2p.NodeID
	net      *Network
	alive    bool
	epoch    uint64   // bumped on failure; a message in flight across it dies
	parked   []*event // timers that came due while down, in due order
	handlers []handlerReg
	ctr      *obs.NodeCounters // nil unless a Registry is attached
}

type handlerReg struct {
	typ string
	h   p2p.Handler
}

// handler returns the registered handler for msgType, nil if none.
func (n *simNode) handler(msgType string) p2p.Handler {
	for i := range n.handlers {
		if n.handlers[i].typ == msgType {
			return n.handlers[i].h
		}
	}
	return nil
}

func (n *simNode) ID() p2p.NodeID     { return n.id }
func (n *simNode) Now() time.Duration { return n.net.sim.Now() }
func (n *simNode) Rand() *rand.Rand   { return n.net.rng }

func (n *simNode) Handle(msgType string, h p2p.Handler) {
	for i := range n.handlers {
		if n.handlers[i].typ == msgType {
			n.handlers[i].h = h
			return
		}
	}
	n.handlers = append(n.handlers, handlerReg{typ: msgType, h: h})
}

func (n *simNode) Send(msg p2p.Message) {
	if !n.alive {
		return // a crashed peer sends nothing
	}
	msg.From = n.id
	if n.ctr != nil {
		n.ctr.MsgsSent.Add(1)
		n.ctr.BytesSent.Add(int64(msg.Size))
	}
	n.net.send(msg)
}

func (n *simNode) After(d time.Duration, fn func()) p2p.Timer {
	e := n.net.sim.enqueue(d)
	e.fn, e.node = fn, n
	return p2p.NewTimer(e, e.gen)
}
