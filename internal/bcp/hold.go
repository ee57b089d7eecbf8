package bcp

import (
	"time"

	"repro/internal/p2p"
	"repro/internal/service"
)

// This file is the engine's held-session primitive: the bridge between a
// finished composition (reverse-path ACK done, resources hard-committed on
// every peer of the graph) and an external atomic-commitment protocol that
// has not yet decided the session's fate. The federation layer's two-phase
// commit holds each per-domain sub-session here during the prepare window
// and then either promotes it into a normal bounded-life session or releases
// it; a hold that outlives its window presumes abort and releases itself, so
// a crashed or partitioned coordinator can never leak the reservation.

// heldSession is one established graph awaiting an external decision.
type heldSession struct {
	g      *service.Graph
	cancel p2p.Timer
}

// Hold registers an established service graph as a held reservation: if no
// Promote or AbortHold arrives within d, the engine tears the graph down
// across its peers and invokes onExpire. Holding again under the same key
// replaces the previous hold (its timer is cancelled, its graph released).
func (e *Engine) Hold(key uint64, g *service.Graph, d time.Duration, onExpire func()) {
	if prev, ok := e.held[key]; ok {
		prev.cancel.Stop()
		delete(e.held, key)
		e.Teardown(prev.g)
	}
	hs := &heldSession{g: g}
	hs.cancel = e.host.After(d, func() {
		if cur, ok := e.held[key]; ok && cur == hs {
			delete(e.held, key)
			e.Teardown(hs.g)
			if onExpire != nil {
				onExpire()
			}
		}
	})
	e.held[key] = hs
}

// Promote resolves a hold as committed: the expiry timer is cancelled and
// the graph returned to the caller, who now owns the session (and its
// eventual Teardown). Returns nil if the hold already expired or was
// aborted.
func (e *Engine) Promote(key uint64) *service.Graph {
	hs, ok := e.held[key]
	if !ok {
		return nil
	}
	hs.cancel.Stop()
	delete(e.held, key)
	return hs.g
}

// AbortHold resolves a hold as aborted: the expiry timer is cancelled and
// the graph torn down across its peers. Returns the released graph, nil if
// the hold already expired or was promoted.
func (e *Engine) AbortHold(key uint64) *service.Graph {
	hs, ok := e.held[key]
	if !ok {
		return nil
	}
	hs.cancel.Stop()
	delete(e.held, key)
	e.Teardown(hs.g)
	return hs.g
}

// Held returns the number of reservations currently held.
func (e *Engine) Held() int { return len(e.held) }

// armCommitTTL schedules the self-release backstop for one hard allocation
// when cfg.CommitTTL is set. Normal teardown deletes the map entry first,
// making the expiry a no-op.
func (e *Engine) armCommitTTL(key softKey) {
	if e.cfg.CommitTTL <= 0 {
		return
	}
	e.host.After(e.cfg.CommitTTL, func() {
		if res, ok := e.hard[key]; ok {
			e.ledger.Free(res)
			delete(e.hard, key)
		}
	})
}

// armBandwidthTTL is armCommitTTL for session bandwidth admissions.
func (e *Engine) armBandwidthTTL(key allocKey) {
	if e.cfg.CommitTTL <= 0 {
		return
	}
	e.host.After(e.cfg.CommitTTL, func() {
		if kbps, ok := e.bws[key]; ok {
			e.oracle.ReleaseBandwidth(key.a, key.b, kbps)
			delete(e.bws, key)
		}
	})
}
