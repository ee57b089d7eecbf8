package federation

import (
	"time"

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

// decideMsg carries the origin coordinator's decision for one segment. A
// commit also carries Ack, what the participant's acknowledgement needs.
type decideMsg struct {
	FedID  uint64
	Seg    int
	SubID  uint64
	Commit bool
	Ack    commitAck
}

// commitAck is the request as the client settles it: the client to
// acknowledge to, the segments it waits for, the domains they span and the
// instant the coordinator sent the prepares.
type commitAck struct {
	Client     p2p.NodeID
	Segs       int
	Domains    int
	PreparedAt time.Duration
}

// decidedMsg acknowledges to the client that a commit decision was applied
// (Committed) or arrived after the hold had already expired (not Committed).
type decidedMsg struct {
	FedID     uint64
	Seg       int
	Committed bool
	Ack       commitAck
}

// holdRec is one held reservation: its request, and its hold window's timer.
type holdRec struct {
	fedID  uint64
	seg    int
	expiry p2p.Timer
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

	holds     map[uint64]holdRec        // subID -> held reservation
	windows   p2p.Timers[uint64]        // holds, Hold after their prepare
	committed map[uint64]*service.Graph // subID -> its graph (nil: expired first) for Life; dedups decides
	seen      map[uint64]bool           // subID dedup for duplicated prepares, until Hold after resolution
	forget    p2p.Timers[uint64]        // seen entries, Hold after their resolution
	lives     p2p.Timers[uint64]        // committed entries, Life after their commit

	// Ledger counts this gateway's 2PC outcomes.
	Ledger Ledger
	// Trace, when non-nil, receives fed.prepare/commit/abort events.
	Trace obs.Tracer
}

// NewAgent registers the participant protocol on a gateway peer.
func NewAgent(host p2p.Node, eng *bcp.Engine, domain int, cfg Config) *Agent {
	a := &Agent{
		host: host, eng: eng, domain: domain, cfg: cfg,
		holds:     make(map[uint64]holdRec),
		committed: make(map[uint64]*service.Graph),
		seen:      make(map[uint64]bool),
	}
	a.windows.Init(host, a.expire)
	a.forget.Init(host, func(subID uint64) { delete(a.seen, subID) })
	a.lives.Init(host, a.end)
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
			a.resolved(m.SubID)
			a.host.Send(p2p.Message{Type: MsgVote, To: origin, Size: 32,
				Payload: voteMsg{FedID: m.FedID, Seg: m.Seg, Ok: false}})
			return
		}
		sub := m.SubID
		a.eng.Hold(sub, res.Best)
		a.holds[sub] = holdRec{fedID: m.FedID, seg: m.Seg, expiry: a.windows.After(a.cfg.Hold, sub)}
		a.Ledger.Prepares++
		if a.Trace != nil {
			a.Trace.Emit(obs.FedPrepare(a.host.Now(), a.host.ID(), m.FedID, sub, a.domain))
		}
		a.host.Send(p2p.Message{Type: MsgVote, To: origin, Size: 32,
			Payload: voteMsg{FedID: m.FedID, Seg: m.Seg, Ok: true}})
	})
}

// resolved forgets a prepare's sub-ID Hold after the prepare resolved (vote
// no, commit, abort or expiry). A duplicated copy trails its original by link
// jitter, far less than Hold, so the dedup set stays bounded by the prepares
// of the last Hold plus those in flight.
func (a *Agent) resolved(subID uint64) {
	a.forget.After(a.cfg.Hold, subID)
}

// expire is the presumed-abort path: the hold window elapsed with no
// decision, so the reservation is released.
func (a *Agent) expire(subID uint64) {
	rec := a.holds[subID]
	a.eng.AbortHold(subID)
	delete(a.holds, subID)
	a.resolved(subID)
	a.Ledger.Expires++
	if a.Trace != nil {
		a.Trace.Emit(obs.FedAbort(a.host.Now(), a.host.ID(), rec.fedID, subID, a.domain, "expire"))
	}
}

func (a *Agent) onDecide(_ p2p.Node, msg p2p.Message) {
	m := msg.Payload.(decideMsg)
	if !m.Commit {
		if rec, ok := a.holds[m.SubID]; ok {
			rec.expiry.Stop()
			a.eng.AbortHold(m.SubID)
			delete(a.holds, m.SubID)
			a.resolved(m.SubID)
			a.Ledger.Aborts++
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
		// committed one keeps the client's ack collection idempotent.
		_, committed := a.committed[m.SubID]
		a.ack(m, committed)
		return
	}
	rec.expiry.Stop()
	g := a.eng.Promote(m.SubID)
	delete(a.holds, m.SubID)
	a.resolved(m.SubID)
	a.committed[m.SubID] = g
	a.Ledger.Commits++
	if a.Trace != nil {
		a.Trace.Emit(obs.FedCommit(a.host.Now(), a.host.ID(), rec.fedID, m.SubID, a.domain))
	}
	a.lives.After(a.cfg.Life, m.SubID)
	a.ack(m, true)
}

// end closes a committed sub-session at the end of its life.
func (a *Agent) end(subID uint64) {
	if g := a.committed[subID]; g != nil {
		a.eng.Teardown(g)
	}
	delete(a.committed, subID)
}

// ack answers a commit decide to the request's client.
func (a *Agent) ack(m decideMsg, committed bool) {
	a.host.Send(p2p.Message{Type: MsgDecided, To: m.Ack.Client, Size: 32,
		Payload: decidedMsg{FedID: m.FedID, Seg: m.Seg, Committed: committed, Ack: m.Ack}})
}
