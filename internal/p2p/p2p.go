// Package p2p defines the transport-agnostic node abstraction all SpiderNet
// protocol code (DHT, service discovery, BCP, failure recovery) is written
// against. Two runtimes implement it: internal/simnet (deterministic
// discrete-event simulation on a virtual clock) and internal/livenet
// (goroutine-per-peer execution on the real clock with injected wide-area
// latencies).
package p2p

import (
	"math/rand"
	"time"
)

// NodeID identifies a peer within a runtime. IDs are small dense integers
// (the peer's index in the overlay); the DHT layer maintains its own
// 128-bit identifier space on top.
type NodeID int

// NoNode is the zero-like invalid node ID.
const NoNode NodeID = -1

// Message is the envelope exchanged between peers. Payload holds a
// protocol-specific struct; within one process no serialization is needed,
// and the live TCP driver registers payload types with encoding/gob.
type Message struct {
	Type    string // handler key, e.g. "bcp.probe"
	From    NodeID
	To      NodeID
	Size    int // approximate wire size in bytes, for overhead accounting
	Payload any
	// UID optionally identifies this message instance across the run (0 if
	// the protocol does not track identity). Transports stamp it onto drop
	// and fault-injection trace events, so per-copy accounting — e.g. the
	// probe-conservation invariant under loss, duplication, and retransmit —
	// can match every wire-level casualty to the protocol unit it carried.
	UID uint64
}

// Handler processes one received message on the destination node.
// Handlers run single-threaded per node in both runtimes.
type Handler func(n Node, msg Message)

// Timer is the handle After returns, a small value copied freely. Stop
// cancels the timer if it has not fired. It is a no-op on a timer that
// already fired or was already stopped, and on the zero Timer, so a field
// that may never have been armed needs no guard. A runtime that reuses its
// timer records tells their incarnations apart by generation: a handle kept
// past its timer's firing never stops a later timer on the same record.
type Timer struct {
	s   Stopper
	gen uint64
}

// Stopper is the runtime's side of a Timer: Stop(gen) cancels incarnation
// gen of a pending timer and ignores any other. Protocol code holds Timers,
// never Stoppers.
type Stopper interface{ Stop(gen uint64) }

// NewTimer returns the handle of incarnation gen of a runtime's timer s.
func NewTimer(s Stopper, gen uint64) Timer { return Timer{s: s, gen: gen} }

// Stop cancels the timer if it is still pending.
func (t Timer) Stop() {
	if t.s != nil {
		t.s.Stop(t.gen)
	}
}

// Node is a peer's view of the runtime: identity, clock, messaging, timers,
// and randomness. Protocol packages register handlers at startup and then
// communicate exclusively through Send/After.
type Node interface {
	// ID returns this peer's identifier.
	ID() NodeID
	// Now returns elapsed time on the runtime's clock (virtual in
	// simulation, monotonic-real in the live runtime).
	Now() time.Duration
	// Send transmits msg to msg.To. The runtime fills in msg.From.
	// Delivery is asynchronous and takes the modeled network latency;
	// messages to failed peers are silently dropped, as in a real network.
	Send(msg Message)
	// After schedules fn on this node after d. The returned Timer stops it
	// before it fires. A crash pauses the node's timers: one that comes due
	// while the node is down fires when it recovers, in due order.
	After(d time.Duration, fn func()) Timer
	// Rand returns the runtime's random source. In simulation it is the
	// single seeded stream that makes runs reproducible.
	Rand() *rand.Rand
	// Handle registers the handler for a message type, replacing any
	// previous registration.
	Handle(msgType string, h Handler)
}
