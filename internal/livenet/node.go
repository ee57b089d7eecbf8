package livenet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
)

// LoopNode implements p2p.Node with a single event-loop goroutine, so
// handlers and timers never race — the same single-threaded-per-peer
// semantics the simulator provides. Both real-concurrency runtimes bind
// their protocol stacks to one: this package sends through injected
// latencies, tcpnet through sockets.
type LoopNode struct {
	id      p2p.NodeID
	send    func(p2p.Message)
	start   time.Time
	speedup float64
	inbox   chan any // p2p.Message or func()
	quit    chan struct{}
	alive   atomic.Bool
	epoch   atomic.Uint64

	hmu      sync.Mutex
	handlers map[string]p2p.Handler

	rng *rand.Rand
	ctr *obs.NodeCounters // nil unless a Registry is attached
}

// inboxDepth is deep enough that a handler's burst of self-addressed sends
// (tcpnet loops them back from the event loop itself) never fills the queue
// the loop is the only reader of.
const inboxDepth = 4096

// NewLoopNode creates a live node whose clock reads the time since start,
// whose timers fire speedup times sooner than asked, and whose outgoing
// messages go to send. The caller runs Run on a goroutine and ends it with
// Stop.
func NewLoopNode(id p2p.NodeID, rng *rand.Rand, start time.Time, speedup float64, send func(p2p.Message)) *LoopNode {
	n := &LoopNode{
		id:       id,
		send:     send,
		start:    start,
		speedup:  speedup,
		inbox:    make(chan any, inboxDepth),
		quit:     make(chan struct{}),
		handlers: make(map[string]p2p.Handler),
		rng:      rng,
	}
	n.alive.Store(true)
	return n
}

// Run is the event loop; it returns after Stop.
func (n *LoopNode) Run() {
	for {
		select {
		case <-n.quit:
			return
		case item := <-n.inbox:
			if !n.alive.Load() {
				continue // crashed: drain and discard
			}
			switch v := item.(type) {
			case func():
				v()
			case p2p.Message:
				if n.ctr != nil {
					n.ctr.MsgsRecv.Add(1)
				}
				n.hmu.Lock()
				h := n.handlers[v.Type]
				n.hmu.Unlock()
				if h != nil {
					h(n, v)
				}
			}
		}
	}
}

// Post queues a received p2p.Message or a func() for the event loop, and
// reports false once the node has stopped.
func (n *LoopNode) Post(item any) bool {
	select {
	case n.inbox <- item:
		return true
	case <-n.quit:
		return false
	}
}

// Stop ends Run. Call it once.
func (n *LoopNode) Stop() { close(n.quit) }

func (n *LoopNode) ID() p2p.NodeID     { return n.id }
func (n *LoopNode) Now() time.Duration { return time.Since(n.start) }
func (n *LoopNode) Rand() *rand.Rand   { return n.rng }
func (n *LoopNode) Alive() bool        { return n.alive.Load() }

func (n *LoopNode) Handle(msgType string, h p2p.Handler) {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.handlers[msgType] = h
}

func (n *LoopNode) Send(msg p2p.Message) {
	if !n.alive.Load() {
		return
	}
	msg.From = n.id
	if n.ctr != nil {
		n.ctr.MsgsSent.Add(1)
		n.ctr.BytesSent.Add(int64(msg.Size))
	}
	n.send(msg)
}

func (n *LoopNode) After(d time.Duration, fn func()) p2p.CancelFunc {
	epoch := n.epoch.Load()
	var cancelled atomic.Bool
	timer := time.AfterFunc(time.Duration(float64(d)/n.speedup), func() {
		if cancelled.Load() {
			return
		}
		n.Post(func() {
			if !cancelled.Load() && n.epoch.Load() == epoch {
				fn()
			}
		})
	})
	return func() {
		cancelled.Store(true)
		timer.Stop()
	}
}
