// Package livenet is SpiderNet's live runtime: one goroutine per peer,
// real timers, and injected wide-area message latencies. It implements the
// same p2p.Node interface as the discrete-event simulator, so the identical
// protocol stack (DHT, discovery, BCP, recovery) runs unmodified — this is
// the reproduction's stand-in for the paper's multithreaded Java prototype
// deployed on 102 PlanetLab hosts.
package livenet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
)

// Network is a set of live peers exchanging messages with injected
// latencies.
type Network struct {
	lat     [][]float64 // one-way ms
	start   time.Time
	speedup float64

	mu    sync.Mutex
	nodes map[p2p.NodeID]*LoopNode

	closed atomic.Bool

	lossMu  sync.Mutex
	lossP   float64
	lossRng *rand.Rand

	trace  obs.Tracer
	obsReg *obs.Registry
	met    *obs.Metrics
}

// NewNetwork creates a live network over the n×n latency matrix (one-way
// milliseconds). speedup divides every injected latency and timer — e.g.
// speedup=10 runs a wide-area scenario ten times faster while preserving
// relative timing; use 1 for real time.
func NewNetwork(lat [][]float64, speedup float64) *Network {
	if speedup <= 0 {
		speedup = 1
	}
	return &Network{
		lat:     lat,
		start:   time.Now(),
		speedup: speedup,
		nodes:   make(map[p2p.NodeID]*LoopNode),
	}
}

// SetLoss enables uniform message-loss injection: each send is killed with
// probability p, drawn from a dedicated seeded stream. The live runtime's
// goroutine scheduling is nondeterministic, so unlike the simulator the
// seed only fixes the marginal loss rate, not which messages die. p <= 0
// disables injection.
func (nw *Network) SetLoss(p float64, seed int64) {
	nw.lossMu.Lock()
	defer nw.lossMu.Unlock()
	nw.lossP = p
	nw.lossRng = rand.New(rand.NewSource(seed))
}

// Faulty reports whether the network injects loss: the protocol engines on
// it are hardened exactly while it does.
func (nw *Network) Faulty() bool {
	nw.lossMu.Lock()
	defer nw.lossMu.Unlock()
	return nw.lossP > 0
}

// loseSend decides (under the loss lock — send runs from many goroutines)
// whether this message is killed by injected loss.
func (nw *Network) loseSend() bool {
	nw.lossMu.Lock()
	defer nw.lossMu.Unlock()
	return nw.lossP > 0 && nw.lossRng.Float64() < nw.lossP
}

// SetObs attaches the observability subsystem: trace (may be nil) receives
// network-level events, reg (may be nil) accumulates per-node message and
// byte counters, met (may be nil) observes wire-level histograms. Call
// before AddNode so nodes cache their counter blocks; counters are atomic,
// so the admin endpoint reads them while traffic flows.
func (nw *Network) SetObs(trace obs.Tracer, reg *obs.Registry, met *obs.Metrics) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.trace = trace
	nw.obsReg = reg
	nw.met = met
	for id, n := range nw.nodes {
		if reg != nil && n.ctr == nil {
			n.ctr = reg.Node(id)
		}
	}
}

// Scale converts a protocol-time duration into wall time under the
// network's speedup. Protocol configs (timeouts, intervals) are expressed in
// protocol time; the runtime divides by speedup internally.
func (nw *Network) Scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / nw.speedup)
}

// Unscale converts a wall-clock measurement (e.g. a Result's SetupTime,
// taken from Node.Now differences) back into protocol time under the
// network's speedup.
func (nw *Network) Unscale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * nw.speedup)
}

// AddNode registers a live peer and starts its event loop goroutine.
func (nw *Network) AddNode(id p2p.NodeID, seed int64) p2p.Node {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, dup := nw.nodes[id]; dup {
		panic(fmt.Sprintf("livenet: duplicate node %d", id))
	}
	n := NewLoopNode(id, rand.New(rand.NewSource(seed^int64(id)<<17)), nw.start, nw.speedup, nw.send)
	if nw.obsReg != nil {
		n.ctr = nw.obsReg.Node(id)
	}
	nw.nodes[id] = n
	go n.Run()
	return n
}

// Node returns a previously added node.
func (nw *Network) Node(id p2p.NodeID) p2p.Node {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.nodes[id]
}

// Exec runs fn on the node's event loop — the safe way for test and
// experiment code to touch protocol state (register services, start
// compositions) after traffic has started.
func (nw *Network) Exec(id p2p.NodeID, fn func()) {
	nw.mu.Lock()
	n := nw.nodes[id]
	nw.mu.Unlock()
	if n != nil && n.alive.Load() {
		n.Post(fn)
	}
}

// Alive reports whether a peer is up.
func (nw *Network) Alive(id p2p.NodeID) bool {
	nw.mu.Lock()
	n := nw.nodes[id]
	nw.mu.Unlock()
	return n != nil && n.alive.Load()
}

// Fail crashes a peer: messages to it are dropped and its timers wait for it
// to recover. The event loop keeps draining (discarding messages, parking
// timers) so senders never block.
func (nw *Network) Fail(id p2p.NodeID) {
	nw.mu.Lock()
	n := nw.nodes[id]
	nw.mu.Unlock()
	if n != nil {
		n.alive.Store(false)
	}
}

// Recover brings a failed peer back; the timers that came due while it was
// down fire now, in due order.
func (nw *Network) Recover(id p2p.NodeID) {
	nw.mu.Lock()
	n := nw.nodes[id]
	nw.mu.Unlock()
	if n != nil && !n.alive.Swap(true) {
		n.Post(func() {}) // wakes the loop, which fires the parked timers first
	}
}

// Close stops every node goroutine. The network is unusable afterwards.
func (nw *Network) Close() {
	if nw.closed.Swap(true) {
		return
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for _, n := range nw.nodes {
		n.Stop()
	}
}

func (nw *Network) send(msg p2p.Message) {
	if nw.met != nil {
		nw.met.WireBytes.Observe(float64(msg.Size))
	}
	if nw.loseSend() {
		if nw.trace != nil {
			nw.trace.Emit(obs.NetFault(time.Since(nw.start), msg.From, msg.To,
				obs.FaultLoss, msg.Type, msg.Size, msg.UID))
		}
		return
	}
	lat := nw.lat[int(msg.From)][int(msg.To)]
	d := nw.Scale(time.Duration(lat * float64(time.Millisecond)))
	time.AfterFunc(d, func() {
		nw.mu.Lock()
		dst := nw.nodes[msg.To]
		nw.mu.Unlock()
		if dst == nil || !dst.alive.Load() {
			if nw.trace != nil {
				nw.trace.Emit(obs.NetDrop(time.Since(nw.start), msg.From, msg.To, msg.Type, msg.Size, msg.UID))
			}
			return
		}
		dst.Post(msg)
	})
}
