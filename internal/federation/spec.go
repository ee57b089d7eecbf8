// Package federation partitions a SpiderNet deployment into administrative
// domains — each with its own DHT keyspace shard and service registry — and
// composes requests whose function graphs span domains: the origin domain's
// coordinator splits the chain into per-domain subgraphs, each probed locally
// by a gateway peer of its domain, and commits the resulting distributed
// soft-state reservations with a presumed-abort two-phase commit.
//
// Roles: every domain designates its first Gateways members as gateway
// peers. Gateway peers bridge domains — they run the participant Agent that
// converts a locally probed sub-session into a held reservation (prepare)
// and promotes or releases it (commit/abort). The first gateway additionally
// hosts the domain Coordinator, which advertises the domain's function set
// to the other coordinators, splits and stitches cross-domain requests, and
// drives the two-phase commit for requests originating in its domain. Every
// peer carries a thin Client that forwards compositions to its coordinator.
//
// Fault tolerance is timeout-driven presumed abort: a held reservation that
// hears no decision self-releases after the hold window, a coordinator that
// collects no quorum of votes aborts, and committed sessions are bounded
// leases (they self-release at end of life, with a per-holder TTL backstop
// in BCP), so no reservation outlives its session even when a gateway or
// coordinator crashes mid-protocol.
package federation

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/kvspec"
)

// Spec is the compact command-line form of a federated deployment, as
// accepted by the -domains flag:
//
//	domains=4,gateways=2,hold=10s,life=30s
//
// Keys may appear in any order, each at most once. domains is the number of
// administrative domains (>= 2); gateways the gateway peers per domain
// (default 1); hold overrides the prepare-hold window and life the committed
// session lifetime (both default to the Config values). String renders the
// canonical form (fixed key order, zero-valued keys omitted), and Plan
// expands the spec into a DomainPlan over a peer count.
type Spec struct {
	Domains  int           // administrative domains (>= 2)
	Gateways int           // gateway peers per domain; 0 = default 1
	Hold     time.Duration // prepare-hold window override; 0 = Config default
	Life     time.Duration // committed session lifetime override; 0 = Config default
}

var specGrammar = kvspec.Grammar{
	Name:    "domain spec",
	Example: "domains=4,gateways=2",
	Keys:    []string{"domains", "gateways", "hold", "life"},
}

// ParseSpec parses the -domains grammar. The empty string is an error — "no
// federation" is expressed by not passing the flag at all.
func ParseSpec(s string) (*Spec, error) {
	spec := &Spec{}
	err := specGrammar.Parse(s, func(key, val string) (err error) {
		switch key {
		case "domains":
			spec.Domains, err = parseCount(key, val, 2)
		case "gateways":
			spec.Gateways, err = parseCount(key, val, 1)
		case "hold":
			spec.Hold, err = kvspec.ParseDur(key, val)
		case "life":
			spec.Life, err = kvspec.ParseDur(key, val)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if spec.Domains == 0 {
		return nil, fmt.Errorf("domain spec %q: missing required key domains", s)
	}
	return spec, nil
}

// parseCount parses an int of at least min.
func parseCount(key, val string, min int) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: %v", key, val, err)
	}
	if n < min {
		return 0, fmt.Errorf("%s=%d: want at least %d", key, n, min)
	}
	return n, nil
}

// String renders the canonical spec: fixed key order, zero-valued keys
// omitted. ParseSpec(s.String()) reproduces s for any spec with at least one
// non-zero field.
func (s *Spec) String() string {
	return specGrammar.String(kvspec.Int(int64(s.Domains)), kvspec.Int(int64(s.Gateways)),
		kvspec.Dur(s.Hold), kvspec.Dur(s.Life))
}
