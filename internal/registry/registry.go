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

// Discover sends the DHT lookup of the duplicate list stored under key, a
// function's FunctionKey. The lookup stamps every hop event with span, the
// composition-request ID, so trace span trees can attribute discovery traffic
// to the request. It is tried first at known.Root, the peer that answered an
// earlier lookup of the function (dht.Node.GetSpan), which sends only what its
// store gained since if the caller still has that answer (known.Held; a hint
// alone leaves it zero; Listing{Root: p2p.NoNode} knows nothing). cb fires
// exactly once with the answer, which Answered reads as a listing; a caller
// that binds cb once tells its lookups apart by dht.Answer.Key.
func (r *Registry) Discover(key dht.ID, span uint64, known Listing, timeout time.Duration, cb func(dht.Answer)) {
	r.node.GetSpan(key, span, known.Root, known.Held, timeout, cb)
}

// Answered returns the listing answer a gives: the whole list, possibly empty,
// or, when a left out the records the lookup said it held, have (the asking
// listing's Comps) followed by the rest. A timed-out lookup lists nothing and
// names no root.
func Answered(have []*service.Component, a dht.Answer) Listing {
	if !a.OK {
		return Listing{Root: p2p.NoNode}
	}
	if a.Base == 0 {
		have = nil
	}
	return Listing{Comps: components(have, a.Items), Root: a.From, Held: a.Base + len(a.Items)}
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
