package media

import (
	"fmt"
	"time"

	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// MsgADU is the streaming data-plane message type.
const MsgADU = "media.adu"

// ADU carries one frame along a composed service graph: each hop applies
// its component's transform and forwards to the next component's peer; the
// last hop delivers to the receiving application.
type ADU struct {
	SessID uint64
	Graph  *service.Graph
	Order  []int // topological order of function indices
	Pos    int
	Frame  Frame
	Dest   p2p.NodeID
	// SentAt is the sender's clock when the frame entered the session; the
	// destination computes the end-to-end data-plane latency from it.
	SentAt time.Duration
}

// Node is a peer's streaming data-plane endpoint. Attach one to every peer
// that hosts components or terminates sessions.
type Node struct {
	host       p2p.Node
	lookup     func(id string) *service.Component
	deliver    func(Frame)
	deliverADU func(ADU, time.Duration)
}

// Attach registers the data-plane handler on host. lookup resolves locally
// hosted components (e.g. bcp.Engine.LocalComponent).
func Attach(host p2p.Node, lookup func(id string) *service.Component) *Node {
	n := &Node{host: host, lookup: lookup}
	host.Handle(MsgADU, n.onADU)
	return n
}

// OnDeliver sets the receiving application's frame callback (for session
// destinations).
func (n *Node) OnDeliver(fn func(Frame)) { n.deliver = fn }

// OnDeliverADU sets a callback receiving the full ADU plus the arrival time
// on the destination's clock, for data-plane latency measurements.
func (n *Node) OnDeliverADU(fn func(ADU, time.Duration)) { n.deliverADU = fn }

// SendFrame injects one frame into a composed session from the sending
// application. DAG graphs stream along the topological order, which
// serializes parallel branches — acceptable for the data-plane
// demonstration (each component still processes the ADU exactly once).
func (n *Node) SendFrame(g *service.Graph, f Frame) error {
	order := g.Pattern.TopoOrder()
	first := g.Comps[order[0]]
	if !first.Assigned() {
		return fmt.Errorf("media: graph has no component for function %d", order[0])
	}
	n.host.Send(p2p.Message{
		Type: MsgADU,
		To:   first.Comp.Peer,
		Size: 64 + f.Bytes()/64, // headers; payload itself is notional
		Payload: ADU{
			SessID: reqID(g), Graph: g, Order: order, Frame: f, Dest: destOf(g),
			SentAt: n.host.Now(),
		},
	})
	return nil
}

func reqID(g *service.Graph) uint64 {
	if g.Req != nil {
		return g.Req.ID
	}
	return 0
}

func destOf(g *service.Graph) p2p.NodeID {
	if g.Req != nil {
		return g.Req.Dest
	}
	return p2p.NoNode
}

func (n *Node) onADU(_ p2p.Node, msg p2p.Message) {
	adu := msg.Payload.(ADU)
	if adu.Pos >= len(adu.Order) {
		// Past the last component: this peer is the receiving application.
		if n.deliver != nil {
			n.deliver(adu.Frame)
		}
		if n.deliverADU != nil {
			n.deliverADU(adu, n.host.Now())
		}
		return
	}
	fn := adu.Order[adu.Pos]
	snap := adu.Graph.Comps[fn]
	comp := n.lookup(snap.Comp.ID)
	if comp == nil {
		return // component gone mid-stream; recovery will switch graphs
	}
	if t, ok := ForFunction(comp.Function); ok {
		adu.Frame = t.Apply(adu.Frame)
	}
	adu.Frame.Trace = append(adu.Frame.Trace, comp.ID)
	adu.Pos++
	// The component's performance quality Qp models its per-ADU processing
	// time (§2.2: ADUs are taken from the input queue, processed, and sent
	// on); the frame leaves this hop after that service delay.
	processing := time.Duration(comp.Qp[qos.Delay] * float64(time.Millisecond))
	forward := func() {
		if adu.Pos < len(adu.Order) {
			next := adu.Graph.Comps[adu.Order[adu.Pos]].Comp.Peer
			n.host.Send(p2p.Message{Type: MsgADU, To: next, Size: msg.Size, Payload: adu})
			return
		}
		n.host.Send(p2p.Message{Type: MsgADU, To: adu.Dest, Size: msg.Size, Payload: adu})
	}
	if processing <= 0 {
		forward()
		return
	}
	n.host.After(processing, forward)
}

// Latency returns the end-to-end data-plane latency of a delivered ADU as
// observed on clock now (the receiving node's Now()).
func (a ADU) Latency(now time.Duration) time.Duration { return now - a.SentAt }
