// Package spidernet is the public API of this reproduction of "SpiderNet:
// An Integrated Peer-to-Peer Service Composition Framework" (Gu, Nahrstedt,
// Yu — HPDC 2004).
//
// SpiderNet composes distributed application services out of service
// components hosted on P2P overlay peers. A composite service request names
// the required functions (a DAG with dependency and commutation links) and
// the user's QoS/resource requirements; the framework finds a qualified
// mapping onto concrete components with the bounded composition probing
// (BCP) protocol, sets the session up, and keeps it alive through peer
// churn with proactive failure recovery.
//
// Two runtimes execute the identical protocol stack:
//
//   - NewSim: a deterministic discrete-event simulation (virtual clock) —
//     use it for experiments and tests.
//   - NewLive: one goroutine per peer with injected wide-area latencies —
//     the paper's PlanetLab-prototype stand-in.
//
// Quick start:
//
//	net := spidernet.NewSim(spidernet.SimOptions{Peers: 60})
//	req := spidernet.NewRequest().
//		Functions("fn0", "fn1", "fn2").
//		MaxDelay(800 * time.Millisecond).
//		Bandwidth(100).
//		Budget(20).
//		Between(0, 1).
//		Build()
//	res := net.Compose(req)
//	if res.Ok {
//		fmt.Println("composed:", res.Best)
//	}
package spidernet

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/livenet"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/topology"
)

// Re-exported core types. The facade keeps examples and downstream users on
// one import path while the implementation lives in internal packages.
type (
	// Request is a composite service request.
	Request = service.Request
	// Graph is a composed service graph λ.
	Graph = service.Graph
	// Component is one service component's metadata.
	Component = service.Component
	// Result is a composition outcome.
	Result = bcp.Result
	// Frame is a synthetic media application data unit.
	Frame = media.Frame
	// PeerID identifies an overlay peer.
	PeerID = p2p.NodeID
	// FunctionGraph is the abstract function DAG of a request.
	FunctionGraph = fgraph.Graph
	// RecoveryStats aggregates recovery counters.
	RecoveryStats = recovery.Stats
	// Tracer receives structured protocol events (see internal/obs).
	Tracer = obs.Tracer
	// TracerFunc adapts a function to Tracer.
	TracerFunc = obs.TracerFunc
	// TraceEvent is one structured protocol event.
	TraceEvent = obs.Event
	// CounterRegistry collects per-node overhead counters.
	CounterRegistry = obs.Registry
	// Metrics is the online histogram metric set.
	Metrics = obs.Metrics
)

// NewCounterRegistry creates an empty per-node counter registry to attach
// via SimOptions.Counters or LiveOptions.Counters.
func NewCounterRegistry() *CounterRegistry { return obs.NewRegistry() }

// NewMetrics creates the standard histogram metric set to attach via
// SimOptions.Metrics or LiveOptions.Metrics.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// MediaFunctions lists the six multimedia functions of the paper's
// prototype, available in every deployment that uses the media catalogue.
func MediaFunctions() []string { return media.Functions() }

// SimOptions configures a simulated deployment.
type SimOptions struct {
	Seed     int64    // default 1
	IPNodes  int      // IP-layer nodes under the overlay (default 400)
	Peers    int      // overlay peers (default 60)
	Catalog  []string // function catalogue (default fn0..fn19; use MediaFunctions() for the media set)
	Recovery bool     // attach proactive failure recovery to every peer

	Trace    Tracer           // optional structured event sink
	Counters *CounterRegistry // optional per-node overhead counters
	Metrics  *Metrics         // optional histogram metric set
}

// Sim is a simulated SpiderNet deployment on a virtual clock.
type Sim struct {
	c *cluster.Cluster
}

// NewSim builds a simulated deployment: power-law IP topology, overlay,
// DHT + discovery + BCP on every peer, components placed and registered.
func NewSim(opts SimOptions) *Sim {
	var rec *recovery.Config
	if opts.Recovery {
		rc := recovery.DefaultConfig()
		rec = &rc
	}
	return &Sim{c: cluster.New(cluster.Options{
		Seed:     opts.Seed,
		IPNodes:  opts.IPNodes,
		Peers:    opts.Peers,
		Catalog:  opts.Catalog,
		Recovery: rec,
		Trace:    opts.Trace,
		Obs:      opts.Counters,
		Metrics:  opts.Metrics,
	})}
}

// Peers returns the number of overlay peers.
func (s *Sim) Peers() int { return len(s.c.Peers) }

// Functions returns the deployed functions sorted by replica count
// (descending), so Functions()[:3] is always composable.
func (s *Sim) Functions() []string { return s.c.FunctionsByReplicas() }

// Replicas returns how many components provide fn.
func (s *Sim) Replicas(fn string) int { return s.c.Replicas(fn) }

// Components returns every deployed component providing fn.
func (s *Sim) Components(fn string) []Component { return s.c.ComponentsFor(fn) }

// Compose runs one composite service request to completion on the virtual
// clock and returns the outcome.
func (s *Sim) Compose(req *Request) Result {
	var out Result
	done := false
	s.c.Peers[int(req.Source)].Engine.Compose(req, func(r bcp.Result) {
		out = r
		done = true
	})
	s.c.Sim.Run(s.c.Sim.Now() + 120*time.Second)
	if !done {
		return Result{ReqID: req.ID, Ok: false}
	}
	return out
}

// Establish registers a composed session with the sender's proactive
// failure recovery manager (SimOptions.Recovery must be enabled).
func (s *Sim) Establish(req *Request, res Result) error {
	mgr := s.c.Peers[int(req.Source)].Recovery
	if mgr == nil {
		return fmt.Errorf("spidernet: deployment built without Recovery")
	}
	mgr.Establish(req, res)
	return nil
}

// RecoveryStatsFor returns the recovery counters of a sender peer.
func (s *Sim) RecoveryStatsFor(peer PeerID) RecoveryStats {
	if mgr := s.c.Peers[int(peer)].Recovery; mgr != nil {
		return mgr.Stats()
	}
	return RecoveryStats{}
}

// ActiveGraph returns the session's current active graph at its sender, or
// nil if the session is gone.
func (s *Sim) ActiveGraph(source PeerID, sessID uint64) *Graph {
	mgr := s.c.Peers[int(source)].Recovery
	if mgr == nil {
		return nil
	}
	if sess := mgr.Session(sessID); sess != nil {
		return sess.Active
	}
	return nil
}

// Stream pushes n frames from the session's sender through the composed
// graph's components and returns the frames observed by the receiving
// application, in arrival order.
func (s *Sim) Stream(g *Graph, n int, width, height int) []Frame {
	var got []Frame
	dest := g.Req.Dest
	s.c.Peers[int(dest)].Media.OnDeliver(func(f Frame) { got = append(got, f) })
	src := s.c.Peers[int(g.Req.Source)].Media
	for i := 0; i < n; i++ {
		if err := src.SendFrame(g, media.NewFrame(i, width, height)); err != nil {
			break
		}
	}
	s.c.Sim.Run(s.c.Sim.Now() + 30*time.Second)
	return got
}

// FailPeer crashes a peer (components vanish, messages drop).
func (s *Sim) FailPeer(p PeerID) { s.c.Net.Fail(p) }

// RecoverPeer brings a failed peer back up.
func (s *Sim) RecoverPeer(p PeerID) { s.c.Net.Recover(p) }

// RunFor advances the virtual clock by d, processing all protocol activity
// (maintenance probes, recoveries, timers).
func (s *Sim) RunFor(d time.Duration) { s.c.Sim.Run(s.c.Sim.Now() + d) }

// MessagesSent returns the total control messages sent so far.
func (s *Sim) MessagesSent() int64 { return s.c.Net.Stats().MessagesSent }

// Teardown releases a composed session's resources.
func (s *Sim) Teardown(g *Graph) {
	if g != nil && g.Req != nil {
		s.c.Peers[int(g.Req.Source)].Engine.Teardown(g)
	}
}

// LiveOptions configures a live goroutine-per-peer deployment.
type LiveOptions struct {
	Hosts   int     // default 102
	Seed    int64   // default 1
	Speedup float64 // compress wide-area latencies/timers; default 1 (real time)

	Trace    Tracer           // optional structured event sink (live traces are not byte-reproducible)
	Counters *CounterRegistry // optional per-node overhead counters
	Metrics  *Metrics         // optional histogram metric set
}

// Live is a live wide-area deployment (the PlanetLab stand-in). Close it
// when done.
type Live struct {
	tb *livenet.Testbed
}

// NewLive starts a live deployment with one media component per host.
func NewLive(opts LiveOptions) *Live {
	return &Live{tb: livenet.NewTestbed(livenet.TestbedOptions{
		Hosts:   opts.Hosts,
		Seed:    opts.Seed,
		Speedup: opts.Speedup,
		Trace:   opts.Trace,
		Obs:     opts.Counters,
		Metrics: opts.Metrics,
	})}
}

// Compose runs one composition and blocks until the outcome arrives.
func (l *Live) Compose(req *Request) Result { return l.tb.Compose(req) }

// Unscale converts a Result duration to protocol time under the speedup.
func (l *Live) Unscale(d time.Duration) time.Duration { return l.tb.Net.Unscale(d) }

// Replicas counts components providing fn.
func (l *Live) Replicas(fn string) int { return l.tb.Replicas(fn) }

// Stream pushes n frames through a composed session and returns the frames
// delivered to the receiving application within the timeout.
func (l *Live) Stream(g *Graph, n, width, height int, timeout time.Duration) []Frame {
	got := make(chan Frame, n)
	dest := g.Req.Dest
	l.tb.Net.Exec(dest, func() {
		l.tb.Peers[int(dest)].Media.OnDeliver(func(f Frame) {
			select {
			case got <- f:
			default:
			}
		})
	})
	src := g.Req.Source
	l.tb.Net.Exec(src, func() {
		for i := 0; i < n; i++ {
			l.tb.Peers[int(src)].Media.SendFrame(g, media.NewFrame(i, width, height))
		}
	})
	var out []Frame
	deadline := time.After(l.tb.Net.Scale(timeout))
	for len(out) < n {
		select {
		case f := <-got:
			out = append(out, f)
		case <-deadline:
			return out
		}
	}
	return out
}

// Teardown releases a composed session's resources.
func (l *Live) Teardown(g *Graph) {
	if g != nil && g.Req != nil {
		src := g.Req.Source
		l.tb.Net.Exec(src, func() { l.tb.Peers[int(src)].Engine.Teardown(g) })
	}
}

// Close stops the deployment's goroutines.
func (l *Live) Close() { l.tb.Close() }

// ParseSpec reads a composite-service request from its QoSTalk-inspired XML
// form (see internal/spec for the dialect). Bind Source, Dest, and ID on
// the returned request before composing.
func ParseSpec(r io.Reader) (*Request, error) { return spec.Parse(r) }

// RenderSpec serializes a request into the XML dialect.
func RenderSpec(name string, req *Request) ([]byte, error) { return spec.Render(name, req) }

// WideAreaLatencies exposes the latency model used by live deployments
// (exported for experiment harnesses): an n×n one-way millisecond matrix
// shaped like a US/EU PlanetLab slice.
func WideAreaLatencies(hosts int, seed int64) [][]float64 {
	return topology.WideAreaLatencies(hosts, rand.New(rand.NewSource(seed)))
}
