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

// Registry is one peer's interface to the discovery substrate.
type Registry struct {
	node *dht.Node
}

// New wraps a DHT node in the discovery meta-data layer.
func New(node *dht.Node) *Registry { return &Registry{node: node} }

// FunctionKey returns the DHT key a function name maps to.
func FunctionKey(function string) dht.ID { return dht.Key("fn:" + function) }

// Register shares a service component: one record of its meta-data is
// stored in the DHT under its function name's key. Every listing, cache entry
// and probe list that names the component points at that record (past a
// transport that decodes each message, at the copy it decoded), and nothing
// writes it after.
func (r *Registry) Register(c service.Component) {
	r.node.Put(FunctionKey(c.Function), &c, dht.ItemSize)
}

// Listing is a function's duplicate list as one peer's store answered it.
type Listing struct {
	Comps []*service.Component // the records Register stored, shared and read-only
	Root  p2p.NodeID           // the peer that answered (NoNode: nobody has)
	Held  int                  // items Root's store held under the key, duplicates and all
}

// DiscoverSpan retrieves the meta-data list of all components providing
// function. cb fires exactly once with the whole listing (possibly empty) and
// the DHT hop count, or ok=false if the lookup timed out. The lookup stamps
// every hop event with span, the composition-request ID, so trace span trees
// can attribute discovery traffic to the request. It is tried first at
// known.Root, the peer that answered an earlier lookup of function
// (dht.Node.GetSpan), which sends only what its store gained since if the
// caller still has that answer (known.Held and known.Comps; a hint alone
// leaves them zero; Listing{Root: p2p.NoNode} knows nothing).
func (r *Registry) DiscoverSpan(function string, span uint64, known Listing, timeout time.Duration, cb func(l Listing, hops int, ok bool)) {
	r.node.GetSpan(FunctionKey(function), span, known.Root, known.Held, timeout, func(items []any, base int, from p2p.NodeID, hops int, ok bool) {
		if !ok {
			cb(Listing{Root: p2p.NoNode}, 0, false)
			return
		}
		var have []*service.Component
		if base > 0 {
			have = known.Comps
		}
		cb(Listing{Comps: components(have, items), Root: from, Held: base + len(items)}, hops, true)
	})
}

// components returns have (never written to) plus the component records
// among items, one per component ID, the first stored (a component that
// registered again after a rejoin is stored twice). Duplicate lists are a
// handful to a few dozen entries, so the scan for an ID already taken is
// cheaper than a set.
func components(have []*service.Component, items []any) []*service.Component {
	if len(items) == 0 {
		return have
	}
	comps := append(make([]*service.Component, 0, len(have)+len(items)), have...)
next:
	for _, it := range items {
		c, isComp := it.(*service.Component)
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
