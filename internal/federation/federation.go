package federation

import (
	"cmp"
	"sort"
	"time"

	"repro/internal/bcp"
	"repro/internal/obs"
	"repro/internal/p2p"
)

// Protocol message types.
const (
	MsgAdvertise = "fed.advertise" // coordinator -> coordinator: domain function set
	MsgCompose   = "fed.compose"   // client -> domain coordinator: new request
	MsgResult    = "fed.result"    // coordinator -> client: final outcome
	MsgPrepare   = "fed.prepare"   // origin coordinator -> participant gateway
	MsgVote      = "fed.vote"      // participant -> origin: prepared / refused
	MsgDecide    = "fed.decide"    // origin -> participant: commit or abort
	MsgDecided   = "fed.decided"   // participant -> origin: decision applied
)

// Config is the pair of federation timers a deployment chooses, resolved
// from the spec's hold/life keys by Spec.Config. The protocol's other timers
// are the constants below.
type Config struct {
	// Hold is how long a prepared (held) reservation waits for the commit
	// decision before presumed abort releases it (default 15s). It must
	// exceed the origin's voteTimeout plus decision latency, or healthy
	// commits race the release.
	Hold time.Duration
	// Life is how long a committed cross-domain session holds its
	// reservations before the holding gateways tear it down (default 30s).
	// Committed sessions are bounded leases by construction.
	Life time.Duration
}

const (
	// voteTimeout bounds the origin coordinator's wait for all votes
	// (sub-compositions give up after bcp's GiveUpTimeout, 10s, so this needs
	// headroom above that).
	voteTimeout = 12 * time.Second
	// ackTimeout bounds the origin's wait for commit acknowledgements. A
	// commit not fully acknowledged in time counts as a failed composition;
	// already-committed segments still self-release at end of life.
	ackTimeout = 5 * time.Second
	// clientTimeout bounds a client's wait for any outcome — the backstop
	// against a crashed or partitioned origin coordinator.
	clientTimeout = 25 * time.Second
)

// DefaultConfig returns the timer defaults.
func DefaultConfig() Config { return (&Spec{}).Config() }

// Config resolves the deployment's timers: the spec's hold and life keys,
// each defaulted when absent.
func (s *Spec) Config() Config {
	return Config{Hold: cmp.Or(s.Hold, 15*time.Second), Life: cmp.Or(s.Life, 30*time.Second)}
}

// CommitTTL is the per-holder backstop lifetime federated deployments set on
// every BCP hard allocation (bcp.Config.CommitTTL): long enough to outlive
// any legitimately held or committed session, so it only ever fires for
// reservations stranded by a crashed session owner.
func (c Config) CommitTTL() time.Duration {
	return c.Hold + c.Life + 10*time.Second
}

// Drain is how long after the last request arrival a simulation must run for
// every federated session to resolve: client give-up, hold expiry, committed
// session end of life, and the TTL backstop all fire within this window.
func (c Config) Drain() time.Duration {
	return clientTimeout + c.CommitTTL() + 10*time.Second
}

// subIDBase namespaces sub-request IDs minted for per-domain segments above
// both workload request IDs (< 2^40) and the recovery package's reattempt
// namespace (>= 2^40, < 2^50): subID = subIDBase | fedID<<4 | segment.
const subIDBase = uint64(1) << 62

// maxSegments bounds the per-domain segments of one request so segment
// indices fit the sub-ID namespace.
const maxSegments = 15

// SubID returns the deterministic sub-request ID for segment seg of
// federated request fedID.
func SubID(fedID uint64, seg int) uint64 {
	return subIDBase | fedID<<4 | uint64(seg)
}

// Ledger counts one participant's two-phase-commit outcomes. Every prepare
// resolves exactly one way — commit, explicit abort, or timeout expiry — so
// after a full drain Prepares == Commits + Aborts + Expires.
type Ledger struct {
	Prepares int64 // sub-sessions converted to held reservations
	Commits  int64 // holds promoted to committed sessions
	Aborts   int64 // holds released by an explicit abort decision
	Expires  int64 // holds released by presumed-abort timeout
}

// Add accumulates o into l.
func (l *Ledger) Add(o Ledger) {
	l.Prepares += o.Prepares
	l.Commits += o.Commits
	l.Aborts += o.Aborts
	l.Expires += o.Expires
}

// Outstanding is the number of holds not yet resolved.
func (l Ledger) Outstanding() int64 { return l.Prepares - l.Commits - l.Aborts - l.Expires }

// Deployment is the wiring input for one federated cluster: per-gateway
// transport nodes and BCP engines, resolved by peer ID.
type Deployment struct {
	Plan *DomainPlan
	Cfg  Config
	// Host and Engine resolve a gateway peer's transport node and engine.
	Host   func(p2p.NodeID) p2p.Node
	Engine func(p2p.NodeID) *bcp.Engine
	// LocalFns lists each domain's provided functions (what its members'
	// components implement) — the coordinator's administrative knowledge of
	// its own domain, exchanged with the other coordinators at bootstrap.
	LocalFns [][]string
	// Trace/Obs mirror the cluster's observability wiring.
	Trace obs.Tracer
	Obs   *obs.Registry
}

// Federation bundles the control plane of one federated deployment.
type Federation struct {
	Plan   *DomainPlan
	Cfg    Config
	Coords []*Coordinator // one per domain
	Agents []*Agent       // every gateway, domain-major order
	agents map[p2p.NodeID]*Agent
	trace  obs.Tracer
}

// New builds the coordinators and gateway agents over an existing peer
// population. Call Bootstrap afterwards (and run the simulator until idle)
// to exchange the function advertisements.
func New(d Deployment) *Federation {
	f := &Federation{Plan: d.Plan, Cfg: d.Cfg, agents: make(map[p2p.NodeID]*Agent), trace: d.Trace}
	for dom := 0; dom < d.Plan.NumDomains; dom++ {
		for _, gw := range d.Plan.Gateways(dom) {
			a := NewAgent(d.Host(gw), d.Engine(gw), dom, d.Cfg)
			a.Trace = d.Trace
			if d.Obs != nil {
				a.Ctr = d.Obs.Node(gw)
			}
			f.Agents = append(f.Agents, a)
			f.agents[gw] = a
		}
		fns := append([]string(nil), d.LocalFns[dom]...)
		sort.Strings(fns)
		co := NewCoordinator(d.Host(d.Plan.Coordinator(dom)), dom, d.Plan, d.Cfg, fns)
		co.Trace = d.Trace
		f.Coords = append(f.Coords, co)
	}
	return f
}

// NewClient attaches a federation client to one peer, pointing at its
// domain's coordinator.
func (f *Federation) NewClient(host p2p.Node) *Client {
	cl := NewClient(host, f.Plan.Coordinator(f.Plan.Of(host.ID())))
	cl.Trace = f.trace
	return cl
}

// Bootstrap exchanges the function advertisements between coordinators, in
// domain order. Run the simulator until idle afterwards so every remote
// table settles before requests arrive.
func (f *Federation) Bootstrap() {
	for _, co := range f.Coords {
		co.Advertise()
	}
}

// Agent returns the participant agent hosted on gateway gw, nil if gw is not
// a gateway.
func (f *Federation) Agent(gw p2p.NodeID) *Agent { return f.agents[gw] }

// DomainLedger sums the 2PC ledgers of domain d's gateways.
func (f *Federation) DomainLedger(d int) Ledger {
	var l Ledger
	for _, a := range f.Agents {
		if a.domain == d {
			l.Add(a.Ledger)
		}
	}
	return l
}

// TotalLedger sums every gateway's 2PC ledger.
func (f *Federation) TotalLedger() Ledger {
	var l Ledger
	for _, a := range f.Agents {
		l.Add(a.Ledger)
	}
	return l
}

// OutstandingHolds counts held reservations not yet promoted or released
// across all gateways — zero after a full drain.
func (f *Federation) OutstandingHolds() int {
	n := 0
	for _, a := range f.Agents {
		n += len(a.holds)
	}
	return n
}
