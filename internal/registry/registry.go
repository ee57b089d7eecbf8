// Package registry implements SpiderNet's decentralized service discovery
// (§3): a keyword meta-data layer on top of the DHT. Registering a component
// stores its static meta-data under the secure hash of its function name, so
// all functionally duplicated components land on the same root peer; a
// discovery for that function name retrieves the whole duplicate list in one
// DHT lookup.
package registry

import (
	"time"

	"repro/internal/dht"
	"repro/internal/p2p"
	"repro/internal/service"
)

// metaSize approximates the serialized size of one component's meta-data on
// the wire, for overhead accounting.
const metaSize = 96

// Registry is one peer's interface to the discovery substrate.
type Registry struct {
	node *dht.Node
}

// New wraps a DHT node in the discovery meta-data layer.
func New(node *dht.Node) *Registry { return &Registry{node: node} }

// FunctionKey returns the DHT key a function name maps to.
func FunctionKey(function string) dht.ID { return dht.Key("fn:" + function) }

// Register shares a service component: its meta-data is stored in the DHT
// under its function name's key.
func (r *Registry) Register(c service.Component) {
	r.node.Put(FunctionKey(c.Function), c, metaSize)
}

// Discover retrieves the meta-data list of all components providing
// function. cb fires exactly once with the duplicate list (possibly empty)
// and the DHT hop count, or ok=false if the lookup timed out.
func (r *Registry) Discover(function string, timeout time.Duration, cb func(comps []service.Component, hops int, ok bool)) {
	r.DiscoverSpan(function, 0, p2p.NoNode, timeout, func(comps []service.Component, _ p2p.NodeID, hops int, ok bool) {
		cb(comps, hops, ok)
	})
}

// DiscoverSpan is Discover with the composition-request ID attached (the DHT
// lookup stamps every hop event with span so trace span trees can attribute
// discovery traffic to the request), tried first at via, the peer that answered
// an earlier lookup of function (dht.Node.GetSpan); cb learns who answered.
func (r *Registry) DiscoverSpan(function string, span uint64, via p2p.NodeID, timeout time.Duration, cb func(comps []service.Component, root p2p.NodeID, hops int, ok bool)) {
	r.node.GetSpan(FunctionKey(function), span, via, timeout, func(items []any, from p2p.NodeID, hops int, ok bool) {
		if !ok {
			cb(nil, p2p.NoNode, 0, false)
			return
		}
		cb(components(items), from, hops, true)
	})
}

// components returns the component meta-data among items, one per component
// ID (a component that registered again after a rejoin is stored twice).
// Duplicate lists are a handful to a few dozen entries, so the scan for an
// ID already taken is cheaper than a set.
func components(items []any) []service.Component {
	comps := make([]service.Component, 0, len(items))
next:
	for _, it := range items {
		c, isComp := it.(service.Component)
		if !isComp {
			continue
		}
		for i := range comps {
			if comps[i].ID == c.ID {
				continue next
			}
		}
		comps = append(comps, c)
	}
	return comps
}

// DHT exposes the underlying DHT node (e.g. to read its identifier).
func (r *Registry) DHT() *dht.Node { return r.node }
