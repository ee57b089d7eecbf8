package bcp

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// ackMsg is the reverse-path walk (§4.1 step 4): it visits a service graph's
// components sink-first, committing each peer's reservation into a session
// allocation and admitting bandwidth on its outgoing service links. Walk is
// zero for the destination's walk after selection and numbers the walks a
// source starts itself (Confirm) from one.
type ackMsg struct {
	ReqID   uint64
	Walk    uint64
	Best    *service.Graph
	Backups []*service.Graph
	Order   []int // reverse topological order of function indices
	Pos     int
}

// startAck starts the walk of am.Best at its sink: the destination after
// selection and a source confirming a graph it holds both start it here.
func (e *Engine) startAck(am ackMsg) {
	am.Order = slices.Clone(am.Best.Pattern.TopoOrder())
	slices.Reverse(am.Order)
	e.sendAck(am)
}

// sendAck sends the walk on to the component at am.Pos.
func (e *Engine) sendAck(am ackMsg) {
	e.host.Send(p2p.Message{
		Type: MsgAck, To: am.Best.Comps[am.Order[am.Pos]].Comp.Peer, Size: 96,
		Payload: am,
	})
}

func (e *Engine) onAck(_ p2p.Node, msg p2p.Message) {
	am := msg.Payload.(ackMsg)
	if e.Hardened() && e.ackSeen.seen(ackKey{req: am.ReqID, walk: am.Walk, pos: am.Pos}) {
		// A duplicated ack copy (dup fault) must not re-walk the reverse
		// path: the cascade would end in a duplicate answer.
		return
	}
	fn := am.Order[am.Pos]
	snap := am.Best.Comps[fn]
	req := am.Best.Req

	fail := func(reason string) {
		if e.Trace != nil {
			e.Trace.Emit(obs.SessionReject(e.host.Now(), e.host.ID(), am.ReqID,
				snap.Comp.ID, reason))
		}
		e.host.Send(p2p.Message{
			Type: MsgResult, To: req.Source, Size: 64,
			Payload: Result{ReqID: am.ReqID, Walk: am.Walk, Best: am.Best},
		})
	}

	if e.LocalComponent(snap.Comp.ID) == nil {
		fail("vanished") // component vanished between probing and setup
		return
	}
	if !e.commitSession(am.ReqID, snap.Comp.ID, req.Res, req.Lease) {
		fail("resources")
		return
	}
	if !am.Best.Egress(fn, func(_, to p2p.NodeID) bool {
		return e.allocSessionBandwidth(am.ReqID, to, req.Bandwidth, req.Lease)
	}) {
		fail("bandwidth")
		return
	}
	if e.Trace != nil {
		e.Trace.Emit(obs.SessionAdmit(e.host.Now(), e.host.ID(), am.ReqID, snap.Comp.ID))
	}

	am.Pos++
	if am.Pos < len(am.Order) {
		e.sendAck(am)
		return
	}
	// All components confirmed: tell the sender the session is up.
	e.host.Send(p2p.Message{
		Type: MsgResult, To: req.Source, Size: 128,
		Payload: Result{ReqID: am.ReqID, Walk: am.Walk, Ok: true, Best: am.Best, Backups: am.Backups},
	})
}

// walk is a reverse-path walk this source started (Confirm).
type walk struct {
	g, keep *service.Graph
	done    func(ok bool) // nil once the walk has an outcome
}

// Confirm makes g live from its source, where it must run: the walk the
// destination starts after selection, for a graph the source already holds —
// §5's switchover to a backup. done fires once: true when every component
// committed, after g's ingress links are admitted; false on a refusal or
// when timeout passes first. A failed walk releases everything it committed
// outside keep, the graph the session still runs on, and so does an answer
// after the timeout: a timed-out walk stays listed for it.
func (e *Engine) Confirm(g, keep *service.Graph, timeout time.Duration, done func(ok bool)) {
	e.walkSeq++
	id := e.walkSeq
	e.walks[id] = &walk{g: g, keep: keep, done: done}
	e.host.After(timeout, func() { e.endWalk(id, false, false) })
	e.startAck(ackMsg{ReqID: g.Req.ID, Walk: id, Best: g})
}

// endWalk settles walk id on its answer (a bcp.result, ok or not) or on its
// timeout, whichever comes first; a duplicated answer finds nothing.
func (e *Engine) endWalk(id uint64, ok, answer bool) {
	w, found := e.walks[id]
	if !found {
		return
	}
	if answer {
		delete(e.walks, id)
	}
	done := w.done
	w.done = nil
	if ok && done != nil {
		e.admitIngress(w.g)
	} else {
		e.TeardownExcept(w.g, w.keep)
	}
	if done != nil {
		done(ok)
	}
}

// admitIngress admits the sender's ingress service links (to the components
// serving g's source functions) under g's request ID. Best-effort: the
// stream degrades rather than aborts if the sender's uplink is saturated.
func (e *Engine) admitIngress(g *service.Graph) {
	g.ReservedPairs(func(fn int, _, b p2p.NodeID) bool {
		if fn < 0 {
			e.allocSessionBandwidth(g.Req.ID, b, g.Req.Bandwidth, g.Req.Lease)
		}
		return true
	})
}

// commitSession hardens this peer's allocation for one component of a
// session, leased for lease: a live soft reservation is committed, otherwise
// admission is attempted directly. The operation is idempotent per (request,
// component), so a backup graph sharing the component with the broken graph
// re-commits for free.
func (e *Engine) commitSession(reqID uint64, compID string, res qos.Resources, lease time.Duration) bool {
	key := allocKey{reqID: reqID, compID: compID}
	if _, ok := e.allocs[key]; ok {
		return true
	}
	if h, ok := e.soft[softKey{reqID, compID}]; ok {
		delete(e.soft, softKey{reqID, compID})
		h.cancel.Stop()
		e.ledger.Commit(res)
	} else if t := e.shed(); t > 0 && e.ledger.CommittedUtilization() >= t {
		// The soft reservation expired before the ACK arrived. A shedding
		// peer declines this late direct admission just like it declines
		// probes: without the gate, slow ACKs would push it past the
		// threshold the overload plane promised to hold.
		return false
	} else if !e.ledger.CommitDirect(res) {
		return false
	}
	e.allocs[key] = alloc{res: res, at: e.host.Now(), due: e.leaseEnd(lease)}
	return true
}

// allocSessionBandwidth admits a session's bandwidth on the overlay path
// from this peer to b, leased for lease, idempotently per (request, endpoint
// pair).
func (e *Engine) allocSessionBandwidth(reqID uint64, b p2p.NodeID, kbps float64, lease time.Duration) bool {
	key := allocKey{reqID: reqID, a: e.host.ID(), b: b}
	if _, ok := e.allocs[key]; ok {
		return true
	}
	if !e.oracle.AllocBandwidth(e.host.ID(), b, kbps) {
		return false
	}
	e.allocs[key] = alloc{kbps: kbps, at: e.host.Now(), due: e.leaseEnd(lease)}
	return true
}
