// Package tcpnet is SpiderNet's real network transport: peers are separate
// event loops connected by TCP sockets, messages are gob-encoded on the
// wire. It implements the same p2p.Node interface as the simulator and the
// in-process live runtime, so the full protocol stack (DHT, discovery, BCP,
// recovery, streaming) runs over genuine sockets — the closest analogue to
// the paper's networked Java prototype.
//
// The transport uses a static address book (NodeID → host:port), one
// persistent outbound connection per destination with reconnection, and the
// live runtime's single-threaded event-loop node (livenet.LoopNode) for
// handler/timer serialization.
package tcpnet

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/livenet"
	"repro/internal/p2p"
	"repro/internal/wire"
)

// RegisterTypes registers every protocol payload type with encoding/gob.
// Call once before creating transports.
func RegisterTypes() {
	wire.RegisterAll()
}

// wireMsg is the on-the-wire envelope.
type wireMsg struct {
	Type    string
	From    p2p.NodeID
	To      p2p.NodeID
	Size    int
	Payload any
}

// Transport is one peer's endpoint: a listener, outbound connections, and
// the node event loop.
type Transport struct {
	self  p2p.NodeID
	addrs map[p2p.NodeID]string
	ln    net.Listener
	node  *livenet.LoopNode

	mu    sync.Mutex
	conns map[p2p.NodeID]*outConn

	messages atomic.Int64
	bytes    atomic.Int64
	closed   atomic.Bool
	wg       sync.WaitGroup
}

type outConn struct {
	mu  sync.Mutex
	c   net.Conn
	enc *gob.Encoder
}

// Stats reports transport-level counters.
type Stats struct {
	MessagesSent int64
	BytesSent    int64
}

// New starts a transport for peer self, listening on listenAddr (use
// "127.0.0.1:0" to pick a free port and read it back with Addr). addrs maps
// peers to host:port for outbound connections; the map is retained by
// reference, so entries may be added after construction as long as they are
// in place before traffic to those peers starts.
func New(self p2p.NodeID, listenAddr string, addrs map[p2p.NodeID]string, seed int64) (*Transport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", listenAddr, err)
	}
	t := &Transport{
		self:  self,
		addrs: addrs,
		ln:    ln,
		conns: make(map[p2p.NodeID]*outConn),
	}
	t.node = livenet.NewLoopNode(self, rand.New(rand.NewSource(seed^int64(self)<<13)), time.Now(), 1, t.send)
	t.wg.Add(2)
	go t.acceptLoop()
	go func() {
		defer t.wg.Done()
		t.node.Run()
	}()
	return t, nil
}

// Node returns the p2p.Node protocol stacks bind to.
func (t *Transport) Node() p2p.Node { return t.node }

// Addr returns the listener's actual address (useful with ":0" ports).
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Stats returns send counters.
func (t *Transport) Stats() Stats {
	return Stats{MessagesSent: t.messages.Load(), BytesSent: t.bytes.Load()}
}

// Exec runs fn on the node's event loop (for setup and test code).
func (t *Transport) Exec(fn func()) { t.node.Post(fn) }

// Close stops the listener, connections, and event loop.
func (t *Transport) Close() {
	if t.closed.Swap(true) {
		return
	}
	t.ln.Close()
	t.node.Stop()
	t.mu.Lock()
	for _, oc := range t.conns {
		if oc.c != nil {
			oc.c.Close()
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.readLoop(c)
	}
}

func (t *Transport) readLoop(c net.Conn) {
	defer c.Close()
	dec := gob.NewDecoder(c)
	for {
		var wm wireMsg
		if err := dec.Decode(&wm); err != nil {
			return
		}
		msg := p2p.Message{Type: wm.Type, From: wm.From, To: wm.To, Size: wm.Size, Payload: wm.Payload}
		if !t.node.Post(msg) {
			return
		}
	}
}

// send delivers msg to its destination over a persistent connection,
// dialing (or redialing) as needed. Failures drop the message, like a real
// network.
func (t *Transport) send(msg p2p.Message) {
	t.messages.Add(1)
	t.bytes.Add(int64(msg.Size))
	if msg.To == t.self {
		// Loopback without a socket round trip.
		t.node.Post(msg)
		return
	}
	addr, ok := t.addrs[msg.To]
	if !ok {
		return
	}
	oc := t.conn(msg.To)
	oc.mu.Lock()
	defer oc.mu.Unlock()
	wm := wireMsg{Type: msg.Type, From: msg.From, To: msg.To, Size: msg.Size, Payload: msg.Payload}
	for attempt := 0; attempt < 2; attempt++ {
		if oc.c == nil {
			c, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return // destination unreachable: drop
			}
			oc.c = c
			oc.enc = gob.NewEncoder(c)
		}
		if err := oc.enc.Encode(wm); err == nil {
			return
		}
		// Stale connection: reset and retry once.
		oc.c.Close()
		oc.c, oc.enc = nil, nil
	}
}

func (t *Transport) conn(to p2p.NodeID) *outConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	oc, ok := t.conns[to]
	if !ok {
		oc = &outConn{}
		t.conns[to] = oc
	}
	return oc
}
