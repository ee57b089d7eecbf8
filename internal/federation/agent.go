package federation

import (
	"repro/internal/bcp"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/service"
)

// prepareMsg asks a gateway to probe one per-domain segment locally and, on
// success, convert the winning soft-state reservation into a held one.
type prepareMsg struct {
	FedID uint64
	Seg   int
	SubID uint64
	Sub   *service.Request
	// Domain is the participant's domain, echoed for tracing.
	Domain int
}

// voteMsg is the participant's prepare outcome.
type voteMsg struct {
	FedID uint64
	Seg   int
	Ok    bool
}

// decideMsg carries the origin coordinator's decision for one segment.
type decideMsg struct {
	FedID  uint64
	Seg    int
	SubID  uint64
	Commit bool
}

// decidedMsg acknowledges that a commit decision was applied (Committed) or
// arrived after the hold had already expired (not Committed).
type decidedMsg struct {
	FedID     uint64
	Seg       int
	Committed bool
}

type holdRec struct {
	fedID uint64
	seg   int
}

// Agent is the participant side of the two-phase commit, hosted on every
// gateway peer. A prepare runs a local BCP composition for the segment's
// sub-request and registers the winning service graph as a held reservation
// in the gateway's engine; the decision promotes the hold into a committed
// session with a bounded life, or releases it. A hold that hears no decision
// within the hold window presumes abort and releases itself.
type Agent struct {
	host   p2p.Node
	eng    *bcp.Engine
	domain int
	cfg    Config

	holds     map[uint64]holdRec // subID -> held reservation
	committed map[uint64]bool    // subID tombstones for duplicate decides
	seen      map[uint64]bool    // subID dedup for duplicated prepares

	// Ledger counts this gateway's 2PC outcomes.
	Ledger Ledger
	// Trace, when non-nil, receives fed.prepare/commit/abort events.
	Trace obs.Tracer
	// Ctr, when non-nil, receives the per-node federation counters.
	Ctr *obs.NodeCounters
}

// NewAgent registers the participant protocol on a gateway peer.
func NewAgent(host p2p.Node, eng *bcp.Engine, domain int, cfg Config) *Agent {
	a := &Agent{
		host: host, eng: eng, domain: domain, cfg: cfg,
		holds:     make(map[uint64]holdRec),
		committed: make(map[uint64]bool),
		seen:      make(map[uint64]bool),
	}
	host.Handle(MsgPrepare, a.onPrepare)
	host.Handle(MsgDecide, a.onDecide)
	return a
}

func (a *Agent) onPrepare(_ p2p.Node, msg p2p.Message) {
	m := msg.Payload.(prepareMsg)
	if a.seen[m.SubID] {
		// Duplicated prepare (dup fault): the first copy's compose is in
		// flight or resolved; a second compose under the same sub-ID would
		// double-reserve.
		return
	}
	a.seen[m.SubID] = true
	origin := msg.From
	a.eng.Compose(m.Sub, func(res bcp.Result) {
		if !res.Ok {
			a.host.Send(p2p.Message{Type: MsgVote, To: origin, Size: 32,
				Payload: voteMsg{FedID: m.FedID, Seg: m.Seg, Ok: false}})
			return
		}
		sub := m.SubID
		a.eng.Hold(sub, res.Best, a.cfg.Hold, func() { a.expire(sub) })
		a.holds[sub] = holdRec{fedID: m.FedID, seg: m.Seg}
		a.Ledger.Prepares++
		if a.Ctr != nil {
			a.Ctr.FedPrepares.Add(1)
		}
		if a.Trace != nil {
			a.Trace.Emit(obs.FedPrepare(a.host.Now(), a.host.ID(), m.FedID, sub, a.domain))
		}
		a.host.Send(p2p.Message{Type: MsgVote, To: origin, Size: 32,
			Payload: voteMsg{FedID: m.FedID, Seg: m.Seg, Ok: true}})
	})
}

// expire is the presumed-abort path: the hold window elapsed with no
// decision, and the engine has already torn the reservation down.
func (a *Agent) expire(subID uint64) {
	rec, ok := a.holds[subID]
	if !ok {
		return
	}
	delete(a.holds, subID)
	a.Ledger.Expires++
	if a.Ctr != nil {
		a.Ctr.FedAborts.Add(1)
	}
	if a.Trace != nil {
		a.Trace.Emit(obs.FedAbort(a.host.Now(), a.host.ID(), rec.fedID, subID, a.domain, "expire"))
	}
}

func (a *Agent) onDecide(_ p2p.Node, msg p2p.Message) {
	m := msg.Payload.(decideMsg)
	origin := msg.From
	if !m.Commit {
		if rec, ok := a.holds[m.SubID]; ok {
			a.eng.AbortHold(m.SubID)
			delete(a.holds, m.SubID)
			a.Ledger.Aborts++
			if a.Ctr != nil {
				a.Ctr.FedAborts.Add(1)
			}
			if a.Trace != nil {
				a.Trace.Emit(obs.FedAbort(a.host.Now(), a.host.ID(), rec.fedID, m.SubID, a.domain, "abort"))
			}
		}
		return
	}
	rec, ok := a.holds[m.SubID]
	if !ok {
		// Duplicate decide for an already-committed sub-session, or a decide
		// that lost the race against hold expiry. Re-acknowledging a
		// committed one keeps the origin's ack collection idempotent.
		a.host.Send(p2p.Message{Type: MsgDecided, To: origin, Size: 32,
			Payload: decidedMsg{FedID: m.FedID, Seg: m.Seg, Committed: a.committed[m.SubID]}})
		return
	}
	g := a.eng.Promote(m.SubID)
	delete(a.holds, m.SubID)
	a.committed[m.SubID] = true
	a.Ledger.Commits++
	if a.Ctr != nil {
		a.Ctr.FedCommits.Add(1)
	}
	if a.Trace != nil {
		a.Trace.Emit(obs.FedCommit(a.host.Now(), a.host.ID(), rec.fedID, m.SubID, a.domain))
	}
	sub := m.SubID
	a.host.After(a.cfg.Life, func() {
		delete(a.committed, sub)
		if g != nil {
			a.eng.Teardown(g)
		}
	})
	a.host.Send(p2p.Message{Type: MsgDecided, To: origin, Size: 32,
		Payload: decidedMsg{FedID: m.FedID, Seg: m.Seg, Committed: true}})
}

// Holds returns the number of reservations currently held awaiting a
// decision.
func (a *Agent) Holds() int { return len(a.holds) }

// Domain returns the agent's administrative domain.
func (a *Agent) Domain() int { return a.domain }
