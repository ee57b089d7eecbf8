// Package peer wires one overlay node's protocol stack — resource ledger, DHT
// node, discovery registry, BCP engine and media endpoint — the one way both
// runtimes build it: the simulated cluster and the live testbed run one
// protocol implementation, and their peers cannot drift apart.
package peer

import (
	"repro/internal/bcp"
	"repro/internal/dht"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/service"
)

// Peer is one overlay node's protocol stack.
type Peer struct {
	Node       p2p.Node
	Ledger     *qos.Ledger
	DHT        *dht.Node
	Registry   *registry.Registry
	Engine     *bcp.Engine
	Media      *media.Node
	Components []service.Component
}

// New builds the stack of host, which hosts comps with capacity to spare, on
// a runtime whose liveness view is alive and whose data plane is oracle. The
// engine runs cfg, hardened while faulty reports that the runtime's wire
// injects faults (nil: it never does); the engine and the DHT node emit to
// trace, observe met and, when ctrs is non-nil, count into host's row of it.
// What a deployment adds on top — the load plane, recovery — is its caller's.
func New(host p2p.Node, alive func(p2p.NodeID) bool, faulty func() bool, oracle bcp.Oracle, capacity qos.Resources,
	comps []service.Component, cfg bcp.Config, trace obs.Tracer, met *obs.Metrics, ctrs *obs.Registry) *Peer {
	ledger := qos.NewLedger(capacity)
	dn := dht.New(host, alive)
	reg := registry.New(dn)
	eng := bcp.NewEngine(host, alive, faulty, ledger, reg, oracle, comps, cfg)
	eng.Trace, dn.Trace = trace, trace
	eng.Met, dn.Met = met, met
	if ctrs != nil {
		eng.Ctr = ctrs.Node(host.ID())
		dn.Ctr = eng.Ctr
	}
	return &Peer{
		Node: host, Ledger: ledger, DHT: dn, Registry: reg, Engine: eng,
		Media: media.Attach(host, eng.LocalComponent), Components: comps,
	}
}
