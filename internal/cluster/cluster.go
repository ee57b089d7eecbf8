// Package cluster wires the full SpiderNet stack together over the
// simulation runtime: an IP-layer topology, a P2P service overlay, one DHT
// node + discovery registry + BCP engine per peer, and a population of
// service components. Tests and experiments build clusters instead of
// repeating this plumbing.
package cluster

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/baselines"
	"repro/internal/bcp"
	"repro/internal/dht"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/peer"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Options configures a simulated SpiderNet deployment. Zero fields take the
// defaults documented on each field. What no deployment varies — the mesh
// overlay and its degree, the component delay range, the failure-probability
// bound — is a constant below, not an option.
type Options struct {
	Seed     int64         // RNG seed (default 1)
	IPNodes  int           // IP-layer nodes (default 400)
	Peers    int           // overlay peers (default 60)
	Catalog  []string      // function catalogue (default fn0..fn19)
	MinComps int           // components per peer, inclusive range (default 1)
	MaxComps int           // (default 3)
	Capacity qos.Resources // per-peer capacity (default cpu=20, mem=200)
	// QpLossMax bounds each component's data loss rate (default 0.004).
	QpLossMax float64
	// BCP configures every peer's composition engine.
	BCP bcp.Config
	// Load, when non-nil, enables the overload control plane: every peer's
	// probe handling and session traffic is slowed by the utilization-driven
	// processing-delay model, and (per the option fields) BCP becomes
	// load-aware and sheds work past a utilization threshold. Every engine
	// gets it, with the cluster's ledger view as oracle, as its Load.
	Load *LoadOptions
	// Domains, when non-nil, federates the deployment: peers are partitioned
	// into administrative domains per the spec, each domain gets its own DHT
	// ring (keyspace shard) and a disjoint shard of the function catalogue,
	// gateway peers run the two-phase-commit agents, and every peer gets a
	// federation client (Peer.Fed) for cross-domain composition. The spec's
	// hold/life keys set the federation timers. Nil (the default) builds the
	// flat single-overlay deployment, byte-identical to clusters built before
	// federation existed.
	Domains *federation.Spec
	// Recovery, when non-nil, attaches a failure-recovery manager to every
	// peer.
	Recovery *recovery.Config
	// Trace, when non-nil, receives structured events from every layer
	// (network, DHT, BCP, recovery). Deterministic per seed.
	Trace obs.Tracer
	// Obs, when non-nil, accumulates per-node counters across all layers.
	Obs *obs.Registry
	// Metrics, when non-nil, observes the online histograms (setup latency,
	// probe hops/budget, DHT lookups, switchover duration, wire bytes).
	Metrics *obs.Metrics
}

// The §6.1 world's fixed dimensions.
const (
	overlayDegree = 4 // mesh neighbours per peer, initial and joining alike
	// qpDelayMin/Max bound each component's service delay in ms.
	qpDelayMin, qpDelayMax = 5.0, 30.0
	failProbMax            = 0.05 // bound on per-peer failure probability
)

// LoadOptions configures the overload control plane on a deployment.
type LoadOptions = bcp.LoadOptions

// Peer is one overlay node's protocol stack and what the simulated
// deployment adds to it.
type Peer struct {
	*peer.Peer
	Recovery *recovery.Manager
	FailProb float64
	// Fed is the peer's federation client (nil unless Options.Domains set).
	Fed *federation.Client
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	Sim     *simnet.Sim
	Net     *simnet.Network
	IP      *topology.Graph
	Overlay *topology.Overlay
	Peers   []*Peer
	Rng     *rand.Rand
	// Fed is the federation control plane (nil unless Options.Domains set).
	Fed  *federation.Federation
	opts Options
	load *bcp.LoadPlane // every engine's Load; nil unless Options.Load set
}

// DomainPlan returns the domain plan of a federated cluster, nil otherwise.
func (c *Cluster) DomainPlan() *federation.DomainPlan {
	if c.Fed == nil {
		return nil
	}
	return c.Fed.Plan
}

// Catalog names n synthetic functions fn0..fn{n-1}.
func Catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn%d", i)
	}
	return out
}

func (o *Options) withDefaults() Options {
	v := *o
	v.Seed = cmp.Or(v.Seed, 1)
	v.IPNodes = cmp.Or(v.IPNodes, 400)
	v.Peers = cmp.Or(v.Peers, 60)
	if v.Catalog == nil {
		v.Catalog = Catalog(20)
	}
	v.MinComps = cmp.Or(v.MinComps, 1)
	v.MaxComps = cmp.Or(v.MaxComps, 3)
	v.Capacity = cmp.Or(v.Capacity, qos.Resources{qos.CPU: 20, qos.Memory: 200})
	v.QpLossMax = cmp.Or(v.QpLossMax, 0.004)
	v.BCP = cmp.Or(v.BCP, bcp.DefaultConfig())
	return v
}

// Validate reports the first cross-field rule the options (with defaults
// applied) break. New panics with it; a CLI returns it.
func (o Options) Validate() error {
	_, err := o.withDefaults().domainPlan()
	return err
}

// domainPlan checks the cross-field rules and, for a federated deployment,
// returns the domain plan they had to build.
func (o Options) domainPlan() (*federation.DomainPlan, error) {
	if o.Peers > o.IPNodes {
		return nil, fmt.Errorf("cluster: %d peers exceed %d IP nodes", o.Peers, o.IPNodes)
	}
	if o.Domains == nil {
		return nil, nil
	}
	plan, err := o.Domains.Plan(o.Peers)
	if err != nil {
		return nil, fmt.Errorf("cluster: %v", err)
	}
	if len(o.Catalog) < plan.NumDomains {
		return nil, fmt.Errorf("cluster: catalogue of %d functions cannot shard across %d domains",
			len(o.Catalog), plan.NumDomains)
	}
	return plan, nil
}

// New builds the deployment: topology, overlay, per-peer stacks, component
// placement, and service registration (the simulator is run until the
// registrations settle). It panics on options Validate refuses.
func New(opts Options) *Cluster {
	o := opts.withDefaults()
	plan, err := o.domainPlan()
	if err != nil {
		panic(err.Error())
	}
	// The registry and the metrics fold events: they ride every layer's trace.
	// A run.start opens it: request IDs, PIDs and the clock restart per cluster.
	o.Trace = obs.Counting(o.Trace, o.Obs, o.Metrics)
	if o.Trace != nil {
		o.Trace.Emit(obs.RunStart(o.Seed))
	}
	// The nil-Domains path must stay byte-identical to pre-federation
	// clusters, so every federation branch below is gated on plan != nil.
	rng := rand.New(rand.NewSource(o.Seed))
	sim := simnet.NewSim()
	ip := topology.GeneratePowerLaw(o.IPNodes, 2, 2, 30, rng)
	ov := topology.BuildOverlay(ip, topology.OverlayConfig{
		NumPeers: o.Peers,
		Degree:   overlayDegree,
		CapMin:   2000,
		CapMax:   10000,
	}, rng)
	latency := func(from, to p2p.NodeID) time.Duration {
		return time.Duration(ov.Latency(int(from), int(to)) * float64(time.Millisecond))
	}
	net := simnet.NewNetwork(sim, latency, rng)
	net.SetObs(o.Trace, o.Obs, o.Metrics)

	c := &Cluster{Sim: sim, Net: net, IP: ip, Overlay: ov, Rng: rng, opts: o}
	if o.Load != nil {
		c.load = &bcp.LoadPlane{LoadOptions: *o.Load, Oracle: loadOracle{c}}
	}
	if o.Load != nil && o.Load.Model.Base > 0 {
		model := o.Load.Model
		net.SetProcDelay(func(to p2p.NodeID, msgType string) time.Duration {
			// Every message the peer processes queues behind its service
			// sessions (the peer is one M/M/1 server): probe handling,
			// DHT lookups routed through it, ACKs, media — all inflate
			// with its utilization.
			if i := int(to); i >= 0 && i < len(c.Peers) {
				return model.Delay(c.Peers[i].Ledger.Utilization())
			}
			return 0
		})
	}

	// Placement: per peer, draw its failure probability, how many components
	// it hosts, and each one's (function, delay, loss). This draw order is
	// what every golden trace pins; newPeer itself draws nothing.
	for i := 0; i < o.Peers; i++ {
		id := p2p.NodeID(i)
		failProb := rng.Float64() * failProbMax
		// A federated peer draws its components from its domain's catalogue
		// shard, so every function is provided by exactly one domain.
		catalog := o.Catalog
		if plan != nil {
			catalog = plan.CatalogFor(plan.Of(id), o.Catalog)
		}
		ncomps := o.MinComps + rng.Intn(o.MaxComps-o.MinComps+1)
		comps := make([]service.Component, 0, ncomps)
		used := make(map[string]bool)
		for k := 0; k < ncomps; k++ {
			fn := catalog[rng.Intn(len(catalog))]
			if used[fn] {
				continue // a peer provides each function at most once
			}
			used[fn] = true
			comps = append(comps, c.drawComponent(id, k, fn, failProb))
		}
		c.newPeer(id, comps, failProb)
	}

	// One DHT ring per administrative block: each domain's when federated,
	// else the one ring of every peer. A ring's members only ever learn each
	// other, so a domain owns a disjoint keyspace shard and its registrations
	// stay within it. Each routing-table slot holds the nearest member of its
	// bucket by the latency the wire charges.
	rings := [][]p2p.NodeID{c.peerIDs()}
	if plan != nil {
		rings = plan.Members
	}
	for _, members := range rings {
		ring := make([]*dht.Node, len(members))
		for i, id := range members {
			ring[i] = c.Peers[id].DHT
		}
		dht.BuildNear(ring, func(i, j int) float64 { return ov.Latency(int(members[i]), int(members[j])) })
	}

	// Register every component and let the puts settle.
	for _, p := range c.Peers {
		for _, comp := range p.Components {
			p.Registry.Register(comp)
		}
	}
	sim.RunUntilIdle()

	if plan != nil {
		// The federation control plane goes up after discovery has settled:
		// coordinators and gateway agents on each domain's designated peers,
		// a client on every peer, and one advertisement round so each
		// coordinator knows every domain's function set.
		localFns := make([][]string, plan.NumDomains)
		for d, members := range plan.Members {
			seen := make(map[string]bool)
			for _, id := range members {
				for _, comp := range c.Peers[id].Components {
					if !seen[comp.Function] {
						seen[comp.Function] = true
						localFns[d] = append(localFns[d], comp.Function)
					}
				}
			}
		}
		c.Fed = federation.New(federation.Deployment{
			Plan:     plan,
			Cfg:      o.Domains.Config(),
			Host:     func(id p2p.NodeID) p2p.Node { return c.Peers[id].Node },
			Engine:   func(id p2p.NodeID) *bcp.Engine { return c.Peers[id].Engine },
			LocalFns: localFns,
			Trace:    o.Trace,
		})
		for _, p := range c.Peers {
			p.Fed = c.Fed.NewClient(p.Node)
		}
		c.Fed.Bootstrap()
		sim.RunUntilIdle()
	}
	net.ResetStats()
	return c
}

// drawComponent builds peer id's k-th component, a provider of fn, drawing
// its service delay and loss rate from the cluster's rng.
func (c *Cluster) drawComponent(id p2p.NodeID, k int, fn string, failProb float64) service.Component {
	comp := service.Component{
		ID:       fmt.Sprintf("p%d/%s.%d", int(id), fn, k),
		Function: fn,
		Peer:     id,
		FailProb: failProb,
	}
	comp.Qp[qos.Delay] = qpDelayMin + c.Rng.Float64()*(qpDelayMax-qpDelayMin)
	comp.Qp[qos.Loss] = qos.LossToAdditive(c.Rng.Float64() * c.opts.QpLossMax)
	comp.Res[qos.CPU] = 1
	comp.Res[qos.Memory] = 10
	return comp
}

// newPeer wires one peer's protocol stack and appends it to c.Peers: the one
// place a peer is built, for New's initial population and Join's newcomers
// alike, so the two cannot drift. The decisions — which components, what
// failure probability — are its arguments; it draws nothing from the rng.
func (c *Cluster) newPeer(id p2p.NodeID, comps []service.Component, failProb float64) *Peer {
	o := &c.opts
	p := &Peer{FailProb: failProb, Peer: peer.New(c.Net.AddNode(id), c.Net.Alive, c.Net.Faulty, c.Oracle(),
		o.Capacity, comps, o.BCP, o.Trace, o.Metrics, o.Obs)}
	p.Engine.Load = c.load
	if o.Recovery != nil {
		p.Recovery = recovery.NewManager(p.Engine, *o.Recovery)
		p.Recovery.Trace = o.Trace
	}
	c.Peers = append(c.Peers, p)
	return p
}

// Join adds a brand-new peer to a running deployment: it picks an unused IP
// node as its host, joins the DHT through a live bootstrap peer, registers
// the given components, and becomes fully composable once the join traffic
// settles (run the simulator). This models the paper's dynamic peer
// arrivals. The overlay data plane maps the newcomer onto its bootstrap's
// routes. A federated deployment refuses: its domain plan is sized to the
// initial peer count and has no block for a newcomer.
func (c *Cluster) Join(components []string, bootstrap p2p.NodeID) *Peer {
	if c.Fed != nil {
		panic("cluster: Join on a federated deployment: its domain plan is sized to the initial peer count")
	}
	id := p2p.NodeID(len(c.Peers))
	// Host the newcomer on an IP node no existing peer occupies.
	used := make(map[int]bool, len(c.Peers))
	for p := 0; p < c.Overlay.N(); p++ {
		used[c.Overlay.PeerIP(p)] = true
	}
	ip := c.Rng.Intn(c.IP.N())
	for used[ip] {
		ip = c.Rng.Intn(c.IP.N())
	}
	c.Overlay.AddPeer(c.IP, ip, overlayDegree, c.Rng)

	comps := make([]service.Component, len(components))
	for k, fn := range components {
		comps[k] = c.drawComponent(id, k, fn, 0)
	}
	p := c.newPeer(id, comps, 0)

	p.DHT.Join(bootstrap)
	// Register services once the join has seeded the routing state; on the
	// virtual clock one second is ample.
	p.Node.After(time.Second, func() {
		for _, comp := range comps {
			p.Registry.Register(comp)
		}
	})
	return p
}

// Replicas returns how many components provide fn, live or not.
func (c *Cluster) Replicas(fn string) int { return len(c.ComponentsFor(fn)) }

// ComponentsFor returns every component providing fn, live or not.
func (c *Cluster) ComponentsFor(fn string) []service.Component {
	var out []service.Component
	for _, p := range c.Peers {
		for _, comp := range p.Components {
			if comp.Function == fn {
				out = append(out, comp)
			}
		}
	}
	return out
}

// FunctionsByReplicas returns the provided functions of the catalogue sorted
// by replica count descending, ties in catalogue order — convenient for
// building requests that are actually satisfiable.
func (c *Cluster) FunctionsByReplicas() []string {
	n := make(map[string]int)
	for _, p := range c.Peers {
		for _, comp := range p.Components {
			n[comp.Function]++
		}
	}
	var out []string
	for _, fn := range c.opts.Catalog {
		if n[fn] > 0 {
			out = append(out, fn)
		}
	}
	slices.SortStableFunc(out, func(a, b string) int { return n[b] - n[a] })
	return out
}

// Oracle returns the data-plane oracle shared by all engines.
func (c *Cluster) Oracle() bcp.Oracle { return overlayOracle{c.Overlay} }

// ApplyFaults installs a fault plan on the cluster's network. Partition
// windows in the plan are interpreted relative to "now" (the plan's From/Until
// are offsets from the moment of the call), so a plan built once can be
// applied after the registration warm-up without adjusting for settle time.
// The engines are hardened while the plan injects something (Net.Faulty), so
// apply it before the first composition: no traffic then predates hardening.
func (c *Cluster) ApplyFaults(plan simnet.FaultPlan) {
	c.Net.SetFaults(plan.Shift(c.Sim.Now()))
}

// ApplyFaultSpec expands a parsed fault spec over every peer and installs it;
// a nil spec installs nothing.
func (c *Cluster) ApplyFaultSpec(fs *simnet.FaultSpec) {
	if fs != nil {
		c.ApplyFaults(fs.Plan(c.peerIDs()))
	}
}

func (c *Cluster) peerIDs() []p2p.NodeID {
	ids := make([]p2p.NodeID, len(c.Peers))
	for i := range ids {
		ids[i] = p2p.NodeID(i)
	}
	return ids
}

// Orphans counts the live peers still holding any reservation — hard, soft,
// or a held federation prepare. After a full lease drain each one is a leak.
func (c *Cluster) Orphans() int {
	n := 0
	for i, p := range c.Peers {
		if c.Net.Alive(p2p.NodeID(i)) &&
			(p.Ledger.HardAllocated() != (qos.Resources{}) ||
				p.Ledger.SoftAllocated() != (qos.Resources{}) ||
				p.Engine.Held() > 0) {
			n++
		}
	}
	return n
}

// RecoveryStats sums every peer's recovery-manager statistics (zero when the
// deployment runs without recovery).
func (c *Cluster) RecoveryStats() recovery.Stats {
	var t recovery.Stats
	for _, p := range c.Peers {
		if p.Recovery == nil {
			continue
		}
		s := p.Recovery.Stats()
		t.FailuresDetected += s.FailuresDetected
		t.Switchovers += s.Switchovers
		t.Reactives += s.Reactives
		t.Dead += s.Dead
		t.BackupSum += s.BackupSum
		t.BackupSamples += s.BackupSamples
		t.ComponentsReplaced += s.ComponentsReplaced
		t.Walks += s.Walks
		t.WalkStops += s.WalkStops
		t.Localizations += s.Localizations
	}
	return t
}

// FailFraction fails the given fraction of peers, rounded down, uniformly at
// random — a pick already down is not replaced — and returns their IDs. Only
// benchmark/world.go churns this way; every other run uses a Plan's clauses.
func (c *Cluster) FailFraction(frac float64) []p2p.NodeID {
	n := int(frac * float64(len(c.Peers)))
	perm := c.Rng.Perm(len(c.Peers))
	var failed []p2p.NodeID
	for i := 0; i < n; i++ {
		id := p2p.NodeID(perm[i])
		if c.Net.Alive(id) {
			c.Net.Fail(id)
			failed = append(failed, id)
		}
	}
	return failed
}

// loadOracle exposes every peer's ledger utilization to BCP's load-aware
// selection: hard utilization for routing (it drives processing delay),
// committed utilization for shed prediction. Unknown peers read as idle.
type loadOracle struct{ c *Cluster }

func (lo loadOracle) Util(p p2p.NodeID) float64 {
	if i := int(p); i >= 0 && i < len(lo.c.Peers) {
		return lo.c.Peers[i].Ledger.Utilization()
	}
	return 0
}

func (lo loadOracle) Committed(p p2p.NodeID) float64 {
	if i := int(p); i >= 0 && i < len(lo.c.Peers) {
		return lo.c.Peers[i].Ledger.CommittedUtilization()
	}
	return 0
}

// overlayOracle is the one adapter between topology.Overlay and its callers:
// bcp.Oracle for the engines and the data-plane third of baselines.World.
type overlayOracle struct {
	ov *topology.Overlay
}

func (o overlayOracle) Path(a, b p2p.NodeID) (float64, float64, bool) {
	return o.ov.PathCost(int(a), int(b))
}

func (o overlayOracle) PathLatency(a, b p2p.NodeID) (float64, bool) {
	return o.ov.PathLatency(int(a), int(b))
}

func (o overlayOracle) AllocBandwidth(a, b p2p.NodeID, kbps float64) bool {
	return o.ov.AllocBandwidth(int(a), int(b), kbps)
}

func (o overlayOracle) ReleaseBandwidth(a, b p2p.NodeID, kbps float64) {
	o.ov.ReleaseBandwidth(int(a), int(b), kbps)
}

// World returns the baselines' omniscient view over this cluster: global
// component listings, liveness, ledgers, and the data plane.
func (c *Cluster) World() baselines.World { return &world{c, overlayOracle{c.Overlay}} }

type world struct {
	c *Cluster
	overlayOracle
}

func (w *world) ComponentsFor(fn string) []service.Component { return w.c.ComponentsFor(fn) }
func (w *world) Alive(p p2p.NodeID) bool                     { return w.c.Net.Alive(p) }

func (w *world) Avail(p p2p.NodeID) qos.Resources {
	return w.c.Peers[int(p)].Ledger.AvailableHard()
}

func (w *world) Commit(p p2p.NodeID, res qos.Resources) bool {
	return w.c.Peers[int(p)].Ledger.CommitDirect(res)
}

func (w *world) Free(p p2p.NodeID, res qos.Resources) {
	w.c.Peers[int(p)].Ledger.Free(res)
}

func (w *world) Peers() []p2p.NodeID { return w.c.peerIDs() }
