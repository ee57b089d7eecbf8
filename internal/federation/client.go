package federation

import (
	"math/bits"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/service"
)

// Result is the outcome of a federated composition delivered to the client's
// callback.
type Result struct {
	ReqID uint64
	Ok    bool
	// Domains is the number of administrative domains the session spans
	// (1 for a composition served entirely within one domain, 0 on failure
	// before splitting).
	Domains int
	// CommitLatency is, on success, the time from the coordinator sending the
	// prepares to the last segment's commit acknowledgement reaching the
	// client, read at the client from the prepare instant the
	// acknowledgements echo.
	CommitLatency time.Duration
	// SetupTime is the client's request-to-outcome time.
	SetupTime time.Duration
}

type clientCall struct {
	cb    func(Result)
	start time.Duration
	timer p2p.Timer
	acks  uint16 // segments that acknowledged a commit, one bit each
}

// Client is a peer's entry point into the federation: it forwards
// compositions to its domain coordinator and settles the outcome — ok once
// every segment acknowledged its commit, failed on a failure result or a late
// commit, or failed by a give-up timeout when neither comes.
type Client struct {
	host    p2p.Node
	coord   p2p.NodeID
	pending map[uint64]*clientCall
	expiry  p2p.Timers[uint64] // the calls' give-up timeouts

	// Trace, when non-nil, receives the compose lifecycle events for
	// federated requests (sub-compositions are traced by the gateways' BCP
	// engines).
	Trace obs.Tracer
}

// NewClient registers the client protocol on one peer.
func NewClient(host p2p.Node, coord p2p.NodeID) *Client {
	c := &Client{host: host, coord: coord, pending: make(map[uint64]*clientCall)}
	c.expiry.Init(host, func(id uint64) { c.resolve(id, Result{}) })
	host.Handle(MsgResult, c.onResult)
	host.Handle(MsgDecided, c.onDecided)
	return c
}

// Compose submits req to the domain coordinator. cb is invoked exactly once,
// on this peer, with the outcome — a coordinator that never answers resolves
// as a failure after the client timeout.
func (c *Client) Compose(req *service.Request, cb func(Result)) {
	call := &clientCall{cb: cb, start: c.host.Now()}
	c.pending[req.ID] = call
	err := req.Validate()
	if c.Trace != nil {
		fns := 0
		if err == nil {
			fns = req.FGraph.NumFunctions()
		}
		c.Trace.Emit(obs.ComposeStart(call.start, c.host.ID(), req.ID, fns, req.Budget))
	}
	if err != nil {
		c.resolve(req.ID, Result{})
		return
	}
	call.timer = c.expiry.After(clientTimeout, req.ID)
	c.host.Send(p2p.Message{Type: MsgCompose, To: c.coord, Size: 256,
		Payload: composeMsg{Req: req}})
}

func (c *Client) onResult(_ p2p.Node, msg p2p.Message) {
	c.resolve(msg.Payload.(resultMsg).ReqID, Result{})
}

func (c *Client) onDecided(_ p2p.Node, msg p2p.Message) {
	m := msg.Payload.(decidedMsg)
	call, ok := c.pending[m.FedID]
	if !ok {
		return
	}
	if !m.Committed {
		// A segment's hold expired before its commit decide arrived; the
		// segments that did commit self-release at end of life.
		c.resolve(m.FedID, Result{})
		return
	}
	call.acks |= 1 << m.Seg
	if bits.OnesCount16(call.acks) == m.Ack.Segs {
		c.resolve(m.FedID, Result{Ok: true, Domains: m.Ack.Domains,
			CommitLatency: c.host.Now() - m.Ack.PreparedAt})
	}
}

// resolve is the one way a federated composition ends: it retires call id,
// stamps r with the request and its setup time from one clock read, records
// the outcome and calls back. An id already resolved is ignored.
func (c *Client) resolve(id uint64, r Result) {
	call, ok := c.pending[id]
	if !ok {
		return
	}
	delete(c.pending, id)
	call.timer.Stop()
	now := c.host.Now()
	r.ReqID, r.SetupTime = id, now-call.start
	if c.Trace != nil {
		c.Trace.Emit(obs.ComposeDone(now, c.host.ID(), id, r.Ok, r.SetupTime))
	}
	call.cb(r)
}
