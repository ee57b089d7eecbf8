package federation

import (
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
	// CommitLatency is the origin coordinator's prepare-to-full-ack time on
	// success.
	CommitLatency time.Duration
	// SetupTime is the client's request-to-outcome time.
	SetupTime time.Duration
}

type clientCall struct {
	cb    func(Result)
	start time.Duration
	timer p2p.CancelFunc
}

// Client is a peer's entry point into the federation: it forwards
// compositions to its domain coordinator and delivers the outcome, with a
// give-up timeout as the backstop against a crashed or partitioned
// coordinator.
type Client struct {
	host    p2p.Node
	coord   p2p.NodeID
	pending map[uint64]*clientCall

	// Trace, when non-nil, receives the compose lifecycle events for
	// federated requests (sub-compositions are traced by the gateways' BCP
	// engines).
	Trace obs.Tracer
}

// NewClient registers the client protocol on one peer.
func NewClient(host p2p.Node, coord p2p.NodeID) *Client {
	c := &Client{host: host, coord: coord, pending: make(map[uint64]*clientCall)}
	host.Handle(MsgResult, c.onResult)
	return c
}

// Compose submits req to the domain coordinator. cb is invoked exactly once,
// on this peer, with the outcome — a coordinator that never answers resolves
// as a failure after the client timeout.
func (c *Client) Compose(req *service.Request, cb func(Result)) {
	if err := req.Validate(); err != nil {
		cb(Result{ReqID: req.ID})
		return
	}
	if c.Trace != nil {
		c.Trace.Emit(obs.ComposeStart(c.host.Now(), c.host.ID(), req.ID,
			req.FGraph.NumFunctions(), req.Budget))
	}
	call := &clientCall{cb: cb, start: c.host.Now()}
	c.pending[req.ID] = call
	id := req.ID
	call.timer = c.host.After(clientTimeout, func() {
		c.resolve(id, Result{ReqID: id})
	})
	c.host.Send(p2p.Message{Type: MsgCompose, To: c.coord, Size: 256,
		Payload: composeMsg{Req: req}})
}

func (c *Client) onResult(_ p2p.Node, msg p2p.Message) {
	m := msg.Payload.(resultMsg)
	c.resolve(m.ReqID, Result{ReqID: m.ReqID, Ok: m.Ok, Domains: m.Domains,
		CommitLatency: m.CommitLat})
}

func (c *Client) resolve(id uint64, r Result) {
	call, ok := c.pending[id]
	if !ok {
		return
	}
	delete(c.pending, id)
	call.timer()
	r.SetupTime = c.host.Now() - call.start
	if c.Trace != nil {
		c.Trace.Emit(obs.ComposeDone(c.host.Now(), c.host.ID(), id, r.Ok, r.SetupTime))
	}
	call.cb(r)
}

// Pending returns the number of requests awaiting an outcome.
func (c *Client) Pending() int { return len(c.pending) }
