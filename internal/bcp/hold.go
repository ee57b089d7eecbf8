package bcp

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// This file is the engine's held-session primitive: the bridge between a
// finished composition (reverse-path ACK done, resources hard-committed on
// every peer of the graph) and an external atomic-commitment protocol that
// has not yet decided the session's fate. The federation layer's two-phase
// commit holds each per-domain sub-session here during the prepare window
// and then either promotes it into a normal bounded-life session or releases
// it. The window is the holder's: it times it, and releases a hold that
// outlives it through AbortHold, so a crashed or partitioned coordinator can
// never leak the reservation.

// Hold registers an established service graph as a held reservation under a
// key not held already, until Promote or AbortHold resolves it.
func (e *Engine) Hold(key uint64, g *service.Graph) { e.held[key] = g }

// Promote resolves a hold as committed: the graph is returned to the caller,
// who now owns the session (and its eventual Teardown). Returns nil if the
// hold was already aborted.
func (e *Engine) Promote(key uint64) *service.Graph {
	g := e.held[key]
	delete(e.held, key)
	return g
}

// AbortHold resolves a hold as aborted: the graph is torn down across its
// peers.
func (e *Engine) AbortHold(key uint64) {
	e.Teardown(e.held[key])
	delete(e.held, key)
}

// Held returns the number of reservations currently held.
func (e *Engine) Held() int { return len(e.held) }

// leaseEnd returns the deadline of a session allocation committed now for d
// (its request's Lease; 0: none). It lapses at the later of that and the
// deadline of the last renewal of its request since (Renew); one timer, armed
// at the earliest deadline, frees what lapsed.
func (e *Engine) leaseEnd(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	e.arm(e.host.Now() + d)
	return e.host.Now() + d
}

// Renew extends every allocation this peer holds for request reqID to a lease
// ending d from now, leasing one that had none.
func (e *Engine) Renew(reqID uint64, d time.Duration) {
	now := e.host.Now()
	e.renewed[reqID] = renewal{now, max(e.renewed[reqID].due, now+d)}
	e.arm(now + d)
}

// arm makes the lease timer fire at due unless it fires earlier already.
func (e *Engine) arm(due time.Duration) {
	if e.sweepAt > 0 && e.sweepAt <= due {
		return
	}
	e.sweepT.Stop()
	e.sweepAt, e.sweepT = due, e.host.After(due-e.host.Now(), e.sweepFn)
}

// sweep frees every allocation whose lease lapsed, in key order (the ledger's
// and the links' float arithmetic depends on it), and re-arms for the earliest
// deadline left.
func (e *Engine) sweep() {
	now, next := e.host.Now(), time.Duration(0)
	var gone []allocKey
	for k, a := range e.allocs {
		due := a.due
		if r := e.renewed[k.reqID]; r.at >= a.at {
			due = max(due, r.due)
		}
		switch {
		case due == 0:
		case due <= now:
			gone = append(gone, k)
		case next == 0 || due < next:
			next = due
		}
	}
	for req, r := range e.renewed {
		if r.due <= now {
			delete(e.renewed, req)
		} else if next == 0 || r.due < next {
			next = r.due
		}
	}
	slices.SortFunc(gone, func(k, o allocKey) int {
		return cmp.Or(cmp.Compare(k.reqID, o.reqID), strings.Compare(k.compID, o.compID), cmp.Compare(k.a, o.a), cmp.Compare(k.b, o.b))
	})
	for _, k := range gone {
		e.free(k)
		if e.Trace != nil {
			e.Trace.Emit(obs.SessionExpire(now, e.host.ID(), k.reqID, k.compID, k.b))
		}
	}
	e.sweepAt = 0
	if next > 0 {
		e.arm(next)
	}
}
