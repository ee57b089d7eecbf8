// Package obs is SpiderNet's observability subsystem: a structured,
// allocation-conscious event tracer plus a per-node counter registry.
//
// Timestamps are taken from the hosting runtime's clock (the virtual clock
// in simulation), never from wall time, so traces are bit-for-bit
// reproducible per seed. Tracing is opt-in: every producer holds a Tracer
// that is nil by default, and every emission site guards with a nil check,
// so the disabled path costs one pointer comparison and zero allocations.
//
// The event taxonomy covers the whole stack:
//
//	compose.start / compose.done        BCP composition lifecycle (source)
//	disc.done                           discovery phase boundary (source)
//	probe.sent / probe.forwarded        probe lifecycle (§4.2)
//	probe.dropped / probe.returned
//	probe.collected / select.done       destination-side collection (§4.3)
//	session.admit / session.reject      reverse-path session setup
//	session.establish                   recovery manager adopts a session
//	dht.hop / dht.deliver               DHT routing
//	dht.get.retry / dht.get.fail        lookup timeouts
//	rec.probe / rec.failure             failure monitoring (§5)
//	rec.switchover / rec.reactive / rec.dead
//	net.drop                            message to a dead or unknown peer
//	net.fault                           injected loss/dup/jitter/partition
//	net.down / net.up                   node crash / recovery
//	probe.retransmit                    per-hop probe retransmit (same PID)
//	fed.prepare / fed.commit / fed.abort  federation two-phase commit
package obs

import (
	"encoding/json"
	"time"

	"repro/internal/p2p"
)

// Event kinds. Producers use the typed constructors below; consumers switch
// on these constants.
const (
	KindComposeStart   = "compose.start"
	KindComposeDone    = "compose.done"
	KindDiscDone       = "disc.done"
	KindProbeSent      = "probe.sent"
	KindProbeForwarded = "probe.forwarded"
	KindProbeDropped   = "probe.dropped"
	KindProbeReturned  = "probe.returned"
	KindProbeCollected = "probe.collected"
	KindSelectDone     = "select.done"
	KindSessionAdmit   = "session.admit"
	KindSessionReject  = "session.reject"
	KindSessionEstab   = "session.establish"
	KindDHTHop         = "dht.hop"
	KindDHTDeliver     = "dht.deliver"
	KindDHTGetRetry    = "dht.get.retry"
	KindDHTGetFail     = "dht.get.fail"
	KindRecProbe       = "rec.probe"
	KindRecFailure     = "rec.failure"
	KindRecAttempt     = "rec.attempt"
	KindRecSwitchover  = "rec.switchover"
	KindRecReactive    = "rec.reactive"
	KindRecDead        = "rec.dead"
	KindNetDrop        = "net.drop"
	KindNetFault       = "net.fault"
	KindNetDown        = "net.down"
	KindNetUp          = "net.up"
	KindProbeRetx      = "probe.retransmit"
	KindFedPrepare     = "fed.prepare"
	KindFedCommit      = "fed.commit"
	KindFedAbort       = "fed.abort"
)

// Fault kinds carried in a net.fault event's Note field.
const (
	FaultLoss      = "loss"
	FaultDup       = "dup"
	FaultJitter    = "jitter"
	FaultPartition = "partition"
)

// Event is one structured trace record. The zero value of every optional
// field (Req, Fn, Comp, Hops, Budget, Bytes, Dur, Note) is omitted on the
// wire; Peer is optional with NoNode as its absent value.
type Event struct {
	// TS is the virtual-clock timestamp (nanoseconds since simulation
	// start). Deterministic per seed.
	TS   time.Duration `json:"ts"`
	Kind string        `json:"kind"`
	// Node is the peer that emitted the event.
	Node p2p.NodeID `json:"node"`
	// Req is the request/session identifier the event belongs to.
	Req uint64 `json:"req,omitempty"`
	// PID identifies one probe instance (unique per run, deterministic per
	// seed); PPID is the probe it was split from, 0 at the origin. Probe
	// lifecycle events carry them so a trace checker can account for every
	// probe exactly.
	PID  uint64 `json:"pid,omitempty"`
	PPID uint64 `json:"ppid,omitempty"`
	// Peer is the other endpoint (next hop, probe target, ...), NoNode if
	// not applicable.
	Peer p2p.NodeID `json:"peer,omitempty"`
	// Fn is the service function involved, Comp the component ID.
	Fn   string `json:"fn,omitempty"`
	Comp string `json:"comp,omitempty"`
	// Hops counts routing or probe hops so far.
	Hops int `json:"hops,omitempty"`
	// Budget is the probing budget carried or the backup count maintained.
	Budget int `json:"budget,omitempty"`
	// Bytes is the approximate wire size involved.
	Bytes int `json:"bytes,omitempty"`
	// Dur is a measured duration (e.g. recovery time).
	Dur time.Duration `json:"dur,omitempty"`
	// Dom is the administrative domain a federation event belongs to,
	// offset by one so domain 0 survives omitempty (Domain()/WithDomain
	// handle the bias).
	Dom int `json:"dom,omitempty"`
	// Note carries a short reason or free-form detail.
	Note string `json:"note,omitempty"`
}

// Domain returns the administrative domain the event carries, -1 if none.
func (e *Event) Domain() int { return e.Dom - 1 }

// WithDomain returns a copy of the event tagged with domain d.
func (e Event) WithDomain(d int) Event {
	e.Dom = d + 1
	return e
}

// UnmarshalJSON decodes an event, defaulting the optional Peer field to
// NoNode rather than node 0.
func (e *Event) UnmarshalJSON(b []byte) error {
	type alias Event
	a := alias{Peer: p2p.NoNode}
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	*e = Event(a)
	return nil
}

// Tracer receives events. Implementations: JSONLSink (buffered JSONL
// writer), MemSink (in-memory, for tests and summaries). A nil Tracer means
// tracing is disabled; producers must guard emissions with a nil check, the
// no-op fast path.
type Tracer interface {
	Emit(Event)
}

// Typed event constructors. They only build the Event value; the caller
// guards with `if tracer != nil` so the disabled path does no work.

// ComposeStart records a source starting composition for req.
func ComposeStart(ts time.Duration, node p2p.NodeID, req uint64, funcs, budget int) Event {
	return Event{TS: ts, Kind: KindComposeStart, Node: node, Req: req, Peer: p2p.NoNode,
		Hops: funcs, Budget: budget}
}

// ComposeDone records the composition outcome arriving at the source.
func ComposeDone(ts time.Duration, node p2p.NodeID, req uint64, ok bool, setup time.Duration) Event {
	note := "ok"
	if !ok {
		note = "fail"
	}
	return Event{TS: ts, Kind: KindComposeDone, Node: node, Req: req, Peer: p2p.NoNode,
		Dur: setup, Note: note}
}

// DiscDone records the decentralized-discovery phase of a request resolving
// at the source: every function's duplicate list is in hand (ok) or a lookup
// timed out for good (fail). It is the explicit discovery→probing span
// boundary — without it a cache-served discovery leaves no trace record at
// all and the phase boundary must be guessed from the first probe emission.
func DiscDone(ts time.Duration, node p2p.NodeID, req uint64, ok bool, took time.Duration) Event {
	note := "ok"
	if !ok {
		note = "fail"
	}
	return Event{TS: ts, Kind: KindDiscDone, Node: node, Req: req, Peer: p2p.NoNode,
		Dur: took, Note: note}
}

// ProbeSent records a probe leaving its source toward component comp on
// peer to. ProbeForwarded is the same shape for intermediate hops. pid is
// the new probe's identity, ppid the probe it was split from (0 at the
// origin).
func ProbeSent(ts time.Duration, node p2p.NodeID, req uint64, to p2p.NodeID, fn, comp string, budget, hops int, pid, ppid uint64) Event {
	kind := KindProbeSent
	if hops > 0 {
		kind = KindProbeForwarded
	}
	return Event{TS: ts, Kind: kind, Node: node, Req: req, PID: pid, PPID: ppid, Peer: to,
		Fn: fn, Comp: comp, Budget: budget, Hops: hops}
}

// ProbeDropped records a probe dying at node with a reason
// ("stale-component", "ingress-link", "qos", "resources", "egress-link",
// "discovery", "no-candidate").
func ProbeDropped(ts time.Duration, node p2p.NodeID, req uint64, fn, comp, reason string, hops int, pid uint64) Event {
	return Event{TS: ts, Kind: KindProbeDropped, Node: node, Req: req, PID: pid, Peer: p2p.NoNode,
		Fn: fn, Comp: comp, Hops: hops, Note: reason}
}

// ProbeReturned records a completed probe reporting to the destination.
func ProbeReturned(ts time.Duration, node p2p.NodeID, req uint64, dest p2p.NodeID, hops, bytes int, pid uint64) Event {
	return Event{TS: ts, Kind: KindProbeReturned, Node: node, Req: req, PID: pid, Peer: dest,
		Hops: hops, Bytes: bytes}
}

// ProbeCollected records the destination receiving one probe report. pid is
// the reporting probe's identity, so span builders can link the collection
// back through the probe's PID/PPID lineage to its origin.
func ProbeCollected(ts time.Duration, node p2p.NodeID, req uint64, from p2p.NodeID, hops int, pid uint64) Event {
	return Event{TS: ts, Kind: KindProbeCollected, Node: node, Req: req, Peer: from, Hops: hops, PID: pid}
}

// SelectDone records destination-side optimal composition selection. early
// is how long before its window bound the collector closed: positive when
// the probes' termination credit completed first, zero when the window timer
// decided.
func SelectDone(ts time.Duration, node p2p.NodeID, req uint64, candidates, qualified int, early time.Duration) Event {
	note := "ok"
	if qualified == 0 {
		note = "unqualified"
	}
	return Event{TS: ts, Kind: KindSelectDone, Node: node, Req: req, Peer: p2p.NoNode,
		Hops: candidates, Budget: qualified, Dur: early, Note: note}
}

// SessionAdmit records one peer hardening its reservation for a session.
func SessionAdmit(ts time.Duration, node p2p.NodeID, req uint64, comp string) Event {
	return Event{TS: ts, Kind: KindSessionAdmit, Node: node, Req: req, Peer: p2p.NoNode, Comp: comp}
}

// SessionReject records a peer refusing a session commit with a reason
// ("vanished", "resources", "bandwidth").
func SessionReject(ts time.Duration, node p2p.NodeID, req uint64, comp, reason string) Event {
	return Event{TS: ts, Kind: KindSessionReject, Node: node, Req: req, Peer: p2p.NoNode,
		Comp: comp, Note: reason}
}

// SessionEstablish records the recovery manager adopting a composed session
// with backups maintained backup graphs.
func SessionEstablish(ts time.Duration, node p2p.NodeID, req uint64, backups int) Event {
	return Event{TS: ts, Kind: KindSessionEstab, Node: node, Req: req, Peer: p2p.NoNode, Budget: backups}
}

// DHTHop records a routed DHT message being forwarded to next. req is the
// composition request the routed message serves, 0 for maintenance traffic
// (puts, joins) — lookups launched by a request's discovery phase carry its
// ID so span builders can attribute DHT time per request.
func DHTHop(ts time.Duration, node, next p2p.NodeID, req uint64, hops int, what string) Event {
	return Event{TS: ts, Kind: KindDHTHop, Node: node, Req: req, Peer: next, Hops: hops, Note: what}
}

// DHTDeliver records a routed DHT message reaching its root. req as in
// DHTHop.
func DHTDeliver(ts time.Duration, node p2p.NodeID, req uint64, hops int, what string) Event {
	return Event{TS: ts, Kind: KindDHTDeliver, Node: node, Req: req, Peer: p2p.NoNode, Hops: hops, Note: what}
}

// DHTGetTimeout records a lookup timing out; retry says whether it is being
// retried or has failed for good. req as in DHTHop.
func DHTGetTimeout(ts time.Duration, node p2p.NodeID, req uint64, retry bool) Event {
	kind := KindDHTGetFail
	if retry {
		kind = KindDHTGetRetry
	}
	return Event{TS: ts, Kind: kind, Node: node, Req: req, Peer: p2p.NoNode}
}

// RecProbe records a maintenance walk launched for a session toward its first stop.
func RecProbe(ts time.Duration, node p2p.NodeID, sess uint64, first p2p.NodeID) Event {
	return Event{TS: ts, Kind: KindRecProbe, Node: node, Req: sess, Peer: first}
}

// RecFailure records the sender detecting a broken active graph.
func RecFailure(ts time.Duration, node p2p.NodeID, sess uint64) Event {
	return Event{TS: ts, Kind: KindRecFailure, Node: node, Req: sess, Peer: p2p.NoNode}
}

// RecAttempt records one step of a recovery: a switchover that gives itself
// deadline to be confirmed, or (pid non-zero) the re-composition pid.
func RecAttempt(ts time.Duration, node p2p.NodeID, sess, pid uint64, deadline time.Duration) Event {
	return Event{TS: ts, Kind: KindRecAttempt, Node: node, Req: sess, Peer: p2p.NoNode, PID: pid, Dur: deadline}
}

// RecOutcome records a recovery ending: kind is KindRecSwitchover,
// KindRecReactive, or KindRecDead, dur how long the session was broken.
func RecOutcome(ts time.Duration, node p2p.NodeID, sess uint64, kind string, dur time.Duration) Event {
	return Event{TS: ts, Kind: kind, Node: node, Req: sess, Peer: p2p.NoNode, Dur: dur}
}

// NetDrop records the network dropping a message to a dead or unknown peer.
// uid is the message's protocol identity (a probe's PID), 0 if untracked, so
// the trace checker can attribute the casualty per protocol unit.
func NetDrop(ts time.Duration, from, to p2p.NodeID, msgType string, bytes int, uid uint64) Event {
	return Event{TS: ts, Kind: KindNetDrop, Node: from, Peer: to, Bytes: bytes, Note: msgType, PID: uid}
}

// NetFault records the fault-injection plane acting on a message: kind is one
// of the Fault* constants (Note), msgType the affected message type (Comp),
// uid its protocol identity (PID, 0 if untracked). Loss and partition faults
// kill the message; dup schedules an extra delivery; jitter delays one.
func NetFault(ts time.Duration, from, to p2p.NodeID, kind, msgType string, bytes int, uid uint64) Event {
	return Event{TS: ts, Kind: KindNetFault, Node: from, Peer: to, Bytes: bytes,
		Note: kind, Comp: msgType, PID: uid}
}

// NodeDown records a peer crashing (fault injection or scripted failure).
// Trace checkers use it to excuse protocol exchanges the dead peer can no
// longer finish.
func NodeDown(ts time.Duration, node p2p.NodeID) Event {
	return Event{TS: ts, Kind: KindNetDown, Node: node, Peer: p2p.NoNode}
}

// NodeUp records a crashed peer coming back.
func NodeUp(ts time.Duration, node p2p.NodeID) Event {
	return Event{TS: ts, Kind: KindNetUp, Node: node, Peer: p2p.NoNode}
}

// FedPrepare records a gateway converting a probed sub-session into a held
// reservation: fed is the federated request, sub the per-domain sub-session
// identity (carried in PID), dom the participant's domain.
func FedPrepare(ts time.Duration, node p2p.NodeID, fed, sub uint64, dom int) Event {
	return Event{TS: ts, Kind: KindFedPrepare, Node: node, Req: fed, PID: sub,
		Peer: p2p.NoNode}.WithDomain(dom)
}

// FedCommit records a held reservation being promoted into a committed
// session.
func FedCommit(ts time.Duration, node p2p.NodeID, fed, sub uint64, dom int) Event {
	return Event{TS: ts, Kind: KindFedCommit, Node: node, Req: fed, PID: sub,
		Peer: p2p.NoNode}.WithDomain(dom)
}

// FedAbort records a held reservation being released: reason "abort" for an
// explicit coordinator decision, "expire" for the presumed-abort timeout.
func FedAbort(ts time.Duration, node p2p.NodeID, fed, sub uint64, dom int, reason string) Event {
	return Event{TS: ts, Kind: KindFedAbort, Node: node, Req: fed, PID: sub,
		Peer: p2p.NoNode, Note: reason}.WithDomain(dom)
}

// ProbeRetx records a per-hop retransmit of an unacknowledged probe-carrying
// message: the same PID goes back on the wire toward to, without a fresh
// probe.sent record (the copy is identical) and without spending budget.
// msgType (Comp) says which leg was retransmitted (bcp.probe or bcp.report).
func ProbeRetx(ts time.Duration, node p2p.NodeID, req uint64, to p2p.NodeID, msgType string, try int, pid uint64) Event {
	return Event{TS: ts, Kind: KindProbeRetx, Node: node, Req: req, Peer: to,
		Comp: msgType, Hops: try, PID: pid}
}
