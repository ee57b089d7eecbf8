package federation

import (
	"fmt"
	"time"

	"repro/internal/p2p"
	"repro/internal/simnet"
)

// DomainPlan is the materialized partition of a peer set into administrative
// domains: contiguous member blocks (one DHT ring per domain, so each domain
// owns its keyspace shard — the only partition of the discovery ring a
// deployment has), the designated gateway peers of each domain (its first
// NumGateways members), and the domain coordinator (the first gateway).
type DomainPlan struct {
	NumDomains  int
	NumGateways int
	// Members lists each domain's peers, in ascending node-ID order.
	Members [][]p2p.NodeID
}

// Plan expands the spec over a peer count: peers [0..n) are split into
// Domains contiguous blocks whose sizes differ by at most one (remainders
// going to the lower-numbered domains), and each block's first Gateways
// peers become its gateways.
func (s *Spec) Plan(peers int) (*DomainPlan, error) {
	d := s.Domains
	g := s.Gateways
	if g == 0 {
		g = 1
	}
	if d < 2 {
		return nil, fmt.Errorf("federation: domains=%d: want at least 2", d)
	}
	if peers < d*(g+1) {
		return nil, fmt.Errorf("federation: %d peers cannot host %d domains of %d gateways each (+1 member)",
			peers, d, g)
	}
	p := &DomainPlan{NumDomains: d, NumGateways: g, Members: make([][]p2p.NodeID, d)}
	// Domain dom is peers [cut(dom), cut(dom+1)).
	cut := func(dom int) int { return dom*(peers/d) + min(dom, peers%d) }
	for dom := range p.Members {
		p.Members[dom] = make([]p2p.NodeID, 0, cut(dom+1)-cut(dom))
		for id := cut(dom); id < cut(dom+1); id++ {
			p.Members[dom] = append(p.Members[dom], p2p.NodeID(id))
		}
	}
	return p, nil
}

// Of returns the domain hosting peer id, -1 if the id is outside the planned
// peer set.
func (p *DomainPlan) Of(id p2p.NodeID) int {
	for d, members := range p.Members {
		if id >= members[0] && id <= members[len(members)-1] {
			return d
		}
	}
	return -1
}

// Gateways returns domain d's gateway peers (its first NumGateways members).
func (p *DomainPlan) Gateways(d int) []p2p.NodeID {
	return p.Members[d][:p.NumGateways]
}

// Coordinator returns domain d's coordinator peer (its first gateway).
func (p *DomainPlan) Coordinator(d int) p2p.NodeID {
	return p.Members[d][0]
}

// DomainPartition builds a fault-plane partition cutting domain d off from
// every other domain over [from, until) — the "partition during the commit
// window" chaos scenario.
func (p *DomainPlan) DomainPartition(d int, from, until time.Duration) simnet.Partition {
	part := simnet.Partition{
		Name:  fmt.Sprintf("domain-%d", d),
		A:     append([]p2p.NodeID(nil), p.Members[d]...),
		From:  from,
		Until: until,
	}
	for dom, members := range p.Members {
		if dom != d {
			part.B = append(part.B, members...)
		}
	}
	return part
}

// CatalogFor returns the slice of the function catalogue homed in domain d:
// functions are assigned round-robin by index, so every function has exactly
// one home domain and every domain a disjoint shard of the catalogue. The
// catalogue must have at least one function per domain.
func (p *DomainPlan) CatalogFor(d int, catalog []string) []string {
	var out []string
	for i := d; i < len(catalog); i += p.NumDomains {
		out = append(out, catalog[i])
	}
	return out
}
