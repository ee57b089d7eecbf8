package federation

import (
	"repro/internal/p2p"
	"repro/internal/service"
)

// SeenCount returns how many prepare sub-IDs the agent still keeps for
// deduplicating duplicated prepares.
func (a *Agent) SeenCount() int { return len(a.seen) }

// Prepare hands the agent segment 0 of request fedID, composing sub, as if
// origin's coordinator had sent it; the vote goes to origin.
func (a *Agent) Prepare(origin p2p.NodeID, fedID uint64, sub *service.Request) {
	a.onPrepare(a.host, p2p.Message{Type: MsgPrepare, From: origin, To: a.host.ID(),
		Payload: prepareMsg{FedID: fedID, SubID: sub.ID, Sub: sub, Domain: a.domain}})
}

// Commit hands the agent a commit decide for segment 0 of request fedID, to
// be acknowledged to client.
func (a *Agent) Commit(fedID uint64, client p2p.NodeID) {
	a.onDecide(a.host, p2p.Message{Type: MsgDecide, To: a.host.ID(), Payload: decideMsg{
		FedID: fedID, SubID: SubID(fedID, 0), Commit: true, Ack: commitAck{Client: client}}})
}

// Committed reads a fed.decided payload: whether its commit was applied.
func Committed(payload any) bool { return payload.(decidedMsg).Committed }
