package bcp

import (
	"repro/internal/obs"
	"repro/internal/p2p"
)

// Per-hop probe hardening, on while the runtime's wire injects faults
// (Engine.Hardened): probe, report and credit sends are
// acknowledged hop by hop and an unacknowledged one is retransmitted with the
// same UID — no new probe, no budget spend — up to probeRetries times.
// Receivers acknowledge every copy (the ack may have been lost) and process a
// UID once. On a clean wire none of this state is touched.

// probeAckMsg acknowledges receipt of one probe or report copy by UID.
type probeAckMsg struct {
	UID uint64
}

const probeAckSize = 16

// retxState is one armed retransmit timer; the pointer identity guards
// against a stale timer firing after the entry was replaced.
type retxState struct {
	cancel p2p.Timer
}

// sendReliable transmits msg and, when hardening is enabled, arms the
// ack-gated retransmit loop. reqID and pid annotate the retransmit trace
// events (pid is the probe identity the message carries, so the trace
// checker can count wire copies per probe).
func (e *Engine) sendReliable(msg p2p.Message, reqID, pid uint64) {
	e.host.Send(msg)
	if !e.Hardened() {
		return
	}
	e.armRetx(msg, reqID, pid, 1)
}

// armRetx schedules the try-th retransmit decision for msg. The entry
// stays keyed by msg.UID until the receiver's ack cancels it or the retry
// budget runs out — losing every copy is then the network's problem to
// account (net.drop / net.fault records), not a silent protocol leak.
func (e *Engine) armRetx(msg p2p.Message, reqID, pid uint64, try int) {
	uid := msg.UID
	st := &retxState{}
	st.cancel = e.host.After(probeAckTimeout, func() {
		if cur, ok := e.retx[uid]; !ok || cur != st {
			return
		}
		delete(e.retx, uid)
		if try > probeRetries {
			return
		}
		if e.Trace != nil {
			e.Trace.Emit(obs.ProbeRetx(e.host.Now(), e.host.ID(), reqID, msg.To,
				msg.Type, try, pid))
		}
		e.host.Send(msg)
		e.armRetx(msg, reqID, pid, try+1)
	})
	e.retx[uid] = st
}

// onProbeAck cancels the retransmit loop for an acknowledged copy.
func (e *Engine) onProbeAck(_ p2p.Node, msg p2p.Message) {
	ack := msg.Payload.(probeAckMsg)
	if st, ok := e.retx[ack.UID]; ok {
		st.cancel.Stop()
		delete(e.retx, ack.UID)
	}
}

// ackHop acknowledges one received probe/report copy back to its sender
// and reports whether this UID was already processed (duplicate copy).
// Only meaningful when hardening is on; callers gate on that.
func (e *Engine) ackHop(msg p2p.Message, set *seenSet[uint64]) (dup bool) {
	e.host.Send(p2p.Message{
		Type: MsgProbeAck, To: msg.From, Size: probeAckSize,
		Payload: probeAckMsg{UID: msg.UID},
	})
	return set.seen(msg.UID)
}

// ackKey identifies one position of one reverse-path walk (the
// destination's, walk 0, or one the source started), for
// duplicate-suppression of injected ack copies.
type ackKey struct {
	req, walk uint64
	pos       int
}

// seenCap bounds every duplicate-suppression set; old entries are evicted
// FIFO so long runs don't grow memory without bound. Duplicates arrive
// within a few network round-trips of the original, far inside the window.
const seenCap = 8192

// seenSet is a FIFO-capped membership set.
type seenSet[K comparable] struct {
	set   map[K]struct{}
	order []K
	head  int
}

// seen records k and reports whether it was already present.
func (s *seenSet[K]) seen(k K) bool {
	if _, ok := s.set[k]; ok {
		return true
	}
	if s.set == nil {
		s.set = make(map[K]struct{})
	}
	s.set[k] = struct{}{}
	s.order = append(s.order, k)
	if len(s.order)-s.head > seenCap {
		var zero K
		delete(s.set, s.order[s.head])
		s.order[s.head] = zero
		s.head++
		// Compact once the dead prefix dominates, keeping eviction O(1)
		// amortized.
		if s.head >= seenCap && s.head*2 >= len(s.order) {
			s.order = append(s.order[:0:0], s.order[s.head:]...)
			s.head = 0
		}
	}
	return false
}

// contains reports membership without recording k.
func (s *seenSet[K]) contains(k K) bool {
	_, ok := s.set[k]
	return ok
}
