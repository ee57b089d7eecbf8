// Package bcp implements SpiderNet's bounded composition probing protocol
// (§4 of the paper), the decentralized QoS-aware service composition used at
// session-setup time. A source spawns a budget-bounded number of probes that
// walk candidate service graphs hop by hop, soft-reserving resources and
// recording QoS/resource snapshots; the destination collects the probes,
// merges DAG branches, filters qualified service graphs against the user's
// requirements, picks the minimum-ψ graph for load balance, and confirms it
// with a reverse-path acknowledgement that hardens the reservations.
package bcp

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/service"
)

// Protocol message types.
const (
	MsgProbe    = "bcp.probe"
	MsgReport   = "bcp.report"
	MsgProbeAck = "bcp.probeack"
	MsgAck      = "bcp.ack"
	MsgChosen   = "bcp.chosen"
	MsgResult   = "bcp.result"
	MsgFail     = "bcp.fail"
	MsgTeardown = "bcp.teardown"
)

// Config tunes protocol timers and bounds. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	// SoftTimeout is how long a probe's temporary resource reservation is
	// held before it self-cancels (§4.2 step 2.1).
	SoftTimeout time.Duration
	// CollectTimeout is the base of the upper bound on how long the
	// destination collects one request's probes before running optimal
	// composition selection (§4.3). Collection closes as soon as the
	// probes' termination credit is complete (Probe.Credit); the window
	// only decides when a probe died en route. The bound grows by
	// CollectPerHop for every function in the request, since probes for
	// deeper graphs spend longer in flight.
	CollectTimeout time.Duration
	// CollectPerHop extends the collection window bound per function node.
	CollectPerHop time.Duration
	// GiveUpTimeout bounds the sender's total wait for a composition
	// outcome; if every probe dies en route no destination collector ever
	// answers, and this timer converts silence into a failed Result.
	GiveUpTimeout time.Duration
	// ProbeAckTimeout, when positive, enables per-hop probe hardening for
	// lossy networks: each probe/report transmission is acknowledged by the
	// receiver, and an unacknowledged copy is retransmitted (same UID, no
	// new budget) after this delay. Zero (the default) disables hardening
	// entirely, preserving baseline traces byte for byte.
	ProbeAckTimeout time.Duration
	// ProbeRetries caps retransmits per transmission when hardening is on.
	ProbeRetries int
	// LoadAware folds each candidate peer's current utilization into the
	// composite next-hop metric and makes optimal composition selection
	// penalize graphs through loaded peers (the overload control plane).
	// Needs the engine's Load oracle wired; off by default, preserving
	// load-blind traces byte for byte.
	LoadAware bool
	// ShedThreshold, when positive, is the utilization at or above which a
	// peer sheds load: it declines probe soft-allocation (the probe dies
	// with reason "shed" instead of queueing) and peers that can see its
	// load prune it from next-hop candidate lists. Zero disables shedding.
	ShedThreshold float64
	// LoadModel, when its Base is positive, is the processing-delay model
	// the deployment runs under. Load-aware next-hop scoring uses it to
	// charge each candidate its predicted queueing delay in the same units
	// as path latency; with a zero model the scoring falls back to a flat
	// utilization weight.
	LoadModel qos.LoadModel
	// CommitTTL, when positive, bounds the life of every hard allocation
	// this peer registers: a commit or session-bandwidth admission not
	// released within the TTL frees itself. Federated deployments set it as
	// the backstop against session owners that crash after the reverse-path
	// ACK committed resources on this peer — nobody else knows the session
	// exists, so only a local lease can reclaim them. Zero (the default)
	// keeps hard allocations permanent until torn down.
	CommitTTL time.Duration
	// DisableCommutation turns off pattern exploration (ablation).
	DisableCommutation bool
	// RandomNextHop replaces the composite next-hop selection metric with a
	// uniformly random pick (ablation).
	RandomNextHop bool
	// DisableSoftReservation skips the temporary resource allocation at
	// probe time (ablation; exposes conflicting admissions).
	DisableSoftReservation bool
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		SoftTimeout:    4 * time.Second,
		CollectTimeout: 1200 * time.Millisecond,
		CollectPerHop:  400 * time.Millisecond,
		GiveUpTimeout:  10 * time.Second,
	}
}

// The protocol bounds no deployment varies.
const (
	// discoveryTimeout bounds each DHT lookup during the discovery phase.
	discoveryTimeout = 2 * time.Second
	// cacheTTL is how long a peer trusts a cached function→duplicates list.
	cacheTTL = 30 * time.Second
	// maxPatterns caps the commutation-induced composition patterns
	// explored per request.
	maxPatterns = 4
	// maxBranches caps the DAG branch paths enumerated per pattern.
	maxBranches = 8
	// maxCandidates caps the merged candidate service graphs evaluated at
	// the destination.
	maxCandidates = 256
	// maxBackups caps the number of qualified backup graphs returned to the
	// source for proactive failure recovery.
	maxBackups = 8
)

// Oracle answers local questions about the data plane: the overlay path a
// service link would map onto, and bandwidth admission on it. It abstracts
// the peer's view of its overlay connections; the simulation backs it with
// internal/topology, the live runtime with its latency model.
type Oracle interface {
	// Path returns the overlay path latency (ms) and bottleneck available
	// bandwidth (kbps) between two peers, ok=false if disconnected.
	Path(a, b p2p.NodeID) (latencyMs, bandAvail float64, ok bool)
	// AllocBandwidth reserves kbps on the overlay path between a and b.
	AllocBandwidth(a, b p2p.NodeID, kbps float64) bool
	// ReleaseBandwidth returns kbps to the overlay path between a and b.
	ReleaseBandwidth(a, b p2p.NodeID, kbps float64)
}

// Result is delivered to the source's callback when composition finishes.
type Result struct {
	ReqID   uint64
	Ok      bool
	Best    *service.Graph   // established service graph (nil if !Ok)
	Backups []*service.Graph // other qualified graphs, best-first
	// Setup-time breakdown (Fig. 10): discovery, probing+selection, and
	// reverse-path session initialization.
	DiscoveryTime time.Duration
	ProbeTime     time.Duration
	SetupTime     time.Duration
	// Fine-grained phase partition of SetupTime for successful setups:
	// DiscoveryTime + ProbePhase + CollectPhase + CommitPhase == SetupTime.
	// ProbePhase runs from probe launch to the destination collecting its
	// last probe, CollectPhase is the destination's residual wait before
	// selection, CommitPhase is the reverse-path session commit back to the
	// source. All zero when the destination's timing never reached us.
	ProbePhase   time.Duration
	CollectPhase time.Duration
	CommitPhase  time.Duration
}

// Engine is one peer's BCP participant: it hosts components, processes
// probes, runs the destination collector when it is a request's receiver,
// and initiates composition when it is a sender.
type Engine struct {
	host   p2p.Node
	ledger *qos.Ledger
	reg    *registry.Registry
	oracle Oracle
	cfg    Config

	local []service.Component // components hosted on this peer

	collectors map[uint64]*collector
	pending    map[uint64]*composeState
	soft       map[softKey]softHold
	cache      map[string]List
	fetching   map[string][]waiter // lookups in flight, by function

	// Session-scoped allocation registries. Commits and bandwidth
	// admissions are idempotent per key, and releases free exactly what
	// this peer registered — so a switchover to an overlapping backup graph
	// keeps shared components running, and tearing down a partially set-up
	// graph never frees another session's resources.
	hard map[softKey]qos.Resources
	bws  map[allocKey]float64

	// held holds established service graphs whose session fate is pending an
	// external two-phase-commit decision (the federation layer's prepare
	// window). Each entry releases itself when its hold timer fires.
	held map[uint64]*heldSession

	// Weights for the ψ cost function used at selection time.
	Weights service.Weights
	// SelectByDelay switches optimal composition selection from the
	// load-balancing ψ objective to minimum end-to-end delay, the objective
	// of the paper's Figure 11 experiment.
	SelectByDelay bool
	// Load, when non-nil, reports peers' current utilization for the
	// overload control plane: load-aware next-hop scoring (cfg.LoadAware)
	// and overloaded-candidate pruning (cfg.ShedThreshold). The simulation
	// backs it with the cluster's ledger view.
	Load LoadOracle
	// Trace, when non-nil, receives the probe-lifecycle and session-setup
	// events of every request this engine touches. Nil (the default)
	// disables tracing at the cost of one pointer check per site.
	Trace obs.Tracer
	// Ctr, when non-nil, accumulates this peer's probe/budget counters.
	Ctr *obs.NodeCounters
	// Met, when non-nil, observes composition latency and probe-shape
	// histograms (the online metrics plane). Same nil-guard convention as
	// Trace.
	Met *obs.Metrics

	// probeSeq numbers the probes this engine emits, for trace-checkable
	// probe identities; holdSeq numbers its soft reservations.
	probeSeq uint64
	holdSeq  uint64

	// Scratch of the two allocation-heavy steps, reused across requests:
	// next-hop planning at every hop, selection at the destination.
	next nextHops
	sel  selection

	// Hardening state (touched only when cfg.ProbeAckTimeout > 0, except
	// doneReqs, which also guards against duplicated results): retransmit
	// timers keyed by in-flight message UID, duplicate-suppression sets for
	// received probe and report copies (two sets, because a leaf that is
	// also the destination sees the same UID as both), delivered requests,
	// and processed reverse-path ack positions.
	retx        map[uint64]*retxState
	seenProbes  seenSet[uint64]
	seenReports seenSet[uint64]
	doneReqs    seenSet[uint64]
	ackSeen     seenSet[ackKey]
}

// LoadOracle reports a peer's current scalar utilization in [0,1].
// Implemented by internal/cluster over the peers' ledgers; a live deployment
// would gossip the figures alongside discovery metadata.
//
// Util is hard allocations over capacity — the processing load that actually
// slows the peer down, which is what next-hop routing wants to predict.
// Committed additionally counts outstanding soft reservations — the figure
// the peer's own shedding decision uses, which is what candidate pruning
// wants to predict.
type LoadOracle interface {
	Util(p p2p.NodeID) float64
	Committed(p p2p.NodeID) float64
}

type softKey struct {
	reqID  uint64
	compID string
}

type allocKey struct {
	reqID uint64
	a, b  p2p.NodeID
}

// softHold is one temporary reservation. seq tells a hold from a later one
// under the same key, should a cancelled expiry timer fire after all.
type softHold struct {
	res    qos.Resources
	cancel p2p.CancelFunc
	seq    uint64
}

type composeState struct {
	req       *service.Request
	cb        func(Result)
	started   time.Duration
	discovery time.Duration
	probesOut time.Duration
	// Destination-side phase boundaries, learned from MsgChosen: when the
	// collector saw its last probe and when selection finished. The shared
	// virtual clock makes them directly comparable to this peer's timestamps.
	collectEnd time.Duration
	selectAt   time.Duration
	giveUp     p2p.CancelFunc
	// chosen is the graph the destination selected, learned from MsgChosen
	// in parallel with the reverse ACK. If the ACK chain dies on a failed
	// peer, the give-up path tears this graph down so the peers that did
	// commit release their allocations.
	chosen *service.Graph
}

// NewEngine creates the BCP engine for one peer and registers its message
// handlers. ledger tracks this peer's end-system resources; local lists the
// components it hosts (they must already be registered with reg by the
// caller).
func NewEngine(host p2p.Node, ledger *qos.Ledger, reg *registry.Registry, oracle Oracle, local []service.Component, cfg Config) *Engine {
	e := &Engine{
		host:       host,
		ledger:     ledger,
		reg:        reg,
		oracle:     oracle,
		cfg:        cfg,
		local:      local,
		collectors: make(map[uint64]*collector),
		pending:    make(map[uint64]*composeState),
		soft:       make(map[softKey]softHold),
		cache:      make(map[string]List),
		fetching:   make(map[string][]waiter),
		hard:       make(map[softKey]qos.Resources),
		bws:        make(map[allocKey]float64),
		held:       make(map[uint64]*heldSession),
		retx:       make(map[uint64]*retxState),
		Weights:    service.DefaultWeights(),
	}
	host.Handle(MsgProbe, e.onProbe)
	host.Handle(MsgReport, e.onReport)
	host.Handle(MsgProbeAck, e.onProbeAck)
	host.Handle(MsgAck, e.onAck)
	host.Handle(MsgChosen, e.onChosen)
	host.Handle(MsgResult, e.onResult)
	host.Handle(MsgFail, e.onFail)
	host.Handle(MsgTeardown, e.onTeardown)
	return e
}

// Host returns the underlying transport node.
func (e *Engine) Host() p2p.Node { return e.host }

// Ledger returns this peer's resource ledger.
func (e *Engine) Ledger() *qos.Ledger { return e.ledger }

// LocalComponents returns the components hosted on this peer.
func (e *Engine) LocalComponents() []service.Component { return e.local }

// LocalComponent finds a hosted component by ID, reporting whether this
// peer still hosts it.
func (e *Engine) LocalComponent(id string) (service.Component, bool) {
	return e.localComponent(id)
}

// localComponent finds a hosted component by ID.
func (e *Engine) localComponent(id string) (service.Component, bool) {
	for _, c := range e.local {
		if c.ID == id {
			return c, true
		}
	}
	return service.Component{}, false
}

// Compose initiates QoS-aware service composition for req from this peer
// (the application sender). cb fires exactly once with the outcome. The
// phases: (1) decentralized discovery of all required functions, (2) bounded
// composition probing, (3) destination-side optimal selection, (4)
// reverse-path session setup.
func (e *Engine) Compose(req *service.Request, cb func(Result)) {
	if e.Trace != nil || e.Met != nil {
		if e.Trace != nil {
			e.Trace.Emit(obs.ComposeStart(e.host.Now(), e.host.ID(), req.ID,
				req.FGraph.NumFunctions(), req.Budget))
		}
		inner := cb
		cb = func(res Result) {
			if e.Trace != nil {
				e.Trace.Emit(obs.ComposeDone(e.host.Now(), e.host.ID(), req.ID, res.Ok, res.SetupTime))
			}
			if e.Met != nil && res.Ok {
				e.Met.SetupLatency.ObserveDuration(res.SetupTime)
				e.Met.DiscoveryLatency.ObserveDuration(res.DiscoveryTime)
				e.Met.PhaseProbe.ObserveDuration(res.ProbePhase)
				e.Met.PhaseCollect.ObserveDuration(res.CollectPhase)
				e.Met.PhaseCommit.ObserveDuration(res.CommitPhase)
			}
			inner(res)
		}
	}
	if err := req.Validate(); err != nil {
		cb(Result{ReqID: req.ID, Ok: false})
		return
	}
	st := &composeState{req: req, cb: cb, started: e.host.Now()}
	e.pending[req.ID] = st
	st.giveUp = e.host.After(e.cfg.GiveUpTimeout, func() {
		if cur, ok := e.pending[req.ID]; ok && cur == st {
			delete(e.pending, req.ID)
			// Release whatever a broken ACK chain already committed.
			e.Teardown(st.chosen)
			cb(Result{
				ReqID:         req.ID,
				Ok:            false,
				DiscoveryTime: st.discovery,
				SetupTime:     e.host.Now() - st.started,
			})
		}
	})

	fns := req.FGraph.Functions()
	for _, v := range req.Variants {
		fns = append(fns, v.Functions()...)
	}
	e.discoverAllCached(fns, nil, req.ID, func(table []List, ok bool) {
		st.discovery = e.host.Now() - st.started
		if e.Trace != nil {
			e.Trace.Emit(obs.DiscDone(e.host.Now(), e.host.ID(), req.ID, ok, st.discovery))
		}
		if !ok {
			delete(e.pending, req.ID)
			st.giveUp()
			cb(Result{ReqID: req.ID, Ok: false, DiscoveryTime: st.discovery})
			return
		}
		e.launchProbes(st, table)
	})
}

// List is one function's duplicate list as a peer holds it — in its discovery
// cache, in a resolved table, or riding a source's probe to its first hop: the
// listing with who answered it, and until when the peer that looked it up
// trusts it. Comps is shared by every holder and never written.
type List struct {
	Fn string
	registry.Listing
	Expires time.Duration
}

// entryOf returns table's entry for function fn.
func entryOf(table []List, fn string) List {
	for i := range table {
		if table[i].Fn == fn {
			return table[i]
		}
	}
	return List{Fn: fn, Listing: registry.Listing{Root: p2p.NoNode}}
}

// resolution joins the lookups one discoverAllCached call waits on.
type resolution struct {
	table   []List
	pending int
	failed  bool
	cb      func([]List, bool)
}

// waiter is the table entry of a resolution that a function's lookup fills.
type waiter struct {
	st *resolution
	i  int
}

// discoverAllCached resolves function duplicate lists through the local
// cache, falling back to concurrent DHT lookups, one in flight per function:
// a miss on a function already being fetched — by this call, another probe or
// another request — waits for that answer. A lookup is attributed to span (the
// composition request that caused it) and handed straight to the peer that
// answered this peer last, which sends only what is new (registry.DiscoverSpan),
// else to the peer hints, when not nil, names for its function (NoNode = route
// from scratch). cb fires once, with one entry per function in the order given,
// or ok=false if a lookup timed out — before discoverAllCached returns if the
// cache serves all.
func (e *Engine) discoverAllCached(fns []string, hints []p2p.NodeID, span uint64, cb func(table []List, ok bool)) {
	table := make([]List, len(fns))
	var st *resolution
	hits, now := 0, e.host.Now()
	for i, f := range fns {
		ce, had := e.cache[f]
		if had && ce.Expires > now {
			table[i] = ce
			hits++
			continue
		}
		if st == nil {
			// pending starts at one for this loop itself, so the join cannot
			// complete before every lookup is out.
			st = &resolution{table: table, pending: 1, cb: cb}
		}
		st.pending++
		waiting, fetching := e.fetching[f]
		e.fetching[f] = append(waiting, waiter{st, i})
		if fetching {
			if e.Ctr != nil {
				e.Ctr.DiscJoined.Add(1)
			}
			continue
		}
		known := registry.Listing{Root: p2p.NoNode}
		if had {
			known = ce.Listing
		} else if hints != nil {
			known.Root = hints[i]
		}
		if e.Ctr != nil {
			e.Ctr.DiscLookups.Add(1)
			if known.Root != p2p.NoNode {
				e.Ctr.DiscHinted.Add(1)
			}
		}
		e.reg.DiscoverSpan(f, span, known, discoveryTimeout, func(l registry.Listing, _ int, ok bool) {
			e.fetched(f, l, ok)
		})
	}
	if e.Ctr != nil {
		e.Ctr.DiscCacheHits.Add(int64(hits))
	}
	if st == nil {
		cb(table, true)
		return
	}
	e.resolved(st)
}

// fetched ends the lookup of function fn: an answered list is cached there and
// then, and every resolution waiting on it gets it (or the timeout), in the
// order they came.
func (e *Engine) fetched(fn string, l registry.Listing, ok bool) {
	waiting := e.fetching[fn]
	delete(e.fetching, fn)
	got := List{Fn: fn, Listing: l, Expires: e.host.Now() + cacheTTL}
	if ok {
		e.cache[fn] = got
	}
	for _, w := range waiting {
		w.st.table[w.i] = got
		w.st.failed = w.st.failed || !ok
		e.resolved(w.st)
	}
}

// resolved retires one pending lookup of st; the last one reports.
func (e *Engine) resolved(st *resolution) {
	if st.pending--; st.pending > 0 {
		return
	}
	if st.failed {
		st.cb(nil, false)
		return
	}
	st.cb(st.table, true)
}

// primaryPatternCap returns the pattern cap launchProbes explores per
// function graph; selection uses it to tell primary candidates from variant
// fallbacks.
func (e *Engine) primaryPatternCap() int {
	if e.cfg.DisableCommutation {
		return 1
	}
	return maxPatterns
}

// launchProbes splits the probing budget over composition patterns and
// source functions and emits the initial probes (§4.1 step 1).
func (e *Engine) launchProbes(st *composeState, table []List) {
	req := st.req
	maxPat := e.primaryPatternCap()
	// Composition patterns come from the primary function graph's
	// commutation links plus any alternative variants the request names
	// (conditional-branch semantics): all are probed, and selection picks
	// the best qualified graph across every shape.
	patterns := req.FGraph.Patterns(maxPat)
	for _, v := range req.Variants {
		patterns = append(patterns, v.Patterns(maxPat)...)
	}
	budgetPer := req.Budget / len(patterns)
	if budgetPer < 1 {
		budgetPer = 1
		patterns = patterns[:req.Budget] // fewer patterns than budget units
	}
	// sources resolves pattern pi's source functions against table.
	var sources []List
	enter := func(pr *Probe, pi int) []int {
		pr.PatternIdx, pr.Pattern = pi, patterns[pi]
		fns := pr.Pattern.Sources()
		sources = sources[:0]
		for _, fn := range fns {
			sources = append(sources, entryOf(table, pr.Pattern.Function(fn)))
		}
		return fns
	}
	// The termination credit is split over the patterns that actually
	// launch, so a pattern with no eligible source component strands none.
	pr := Probe{ReqID: req.ID, Req: req, Budget: budgetPer}
	launching := 0
	for pi := range patterns {
		if e.planNext(&pr, enter(&pr, pi), sources) > 0 {
			launching++
		}
	}
	launched := 0
	for pi := range patterns {
		if launched == launching {
			break // every launching pattern is out (or none can launch)
		}
		fns := enter(&pr, pi)
		pr.Hints = hintsFor(pr.Pattern, table)
		pr.Credit = creditShare(TotalCredit, launching, launched)
		if e.spawnNext(&pr, fns, sources, table) {
			launched++
		}
	}
	st.probesOut = e.host.Now()
	if launched == 0 {
		// Nothing to probe (e.g. no duplicates found for a source function):
		// fail fast.
		delete(e.pending, req.ID)
		st.giveUp()
		st.cb(Result{ReqID: req.ID, Ok: false, DiscoveryTime: st.discovery})
	}
}

// onChosen records which graph the destination is confirming, so the
// give-up path can release a partially committed session, plus the
// destination's phase boundaries for the setup-latency breakdown.
func (e *Engine) onChosen(_ p2p.Node, msg p2p.Message) {
	ch := msg.Payload.(chosenMsg)
	if st, ok := e.pending[ch.ReqID]; ok {
		st.chosen = ch.Graph
		st.collectEnd = ch.CollectEnd
		st.selectAt = ch.SelectAt
	}
}

type chosenMsg struct {
	ReqID uint64
	Graph *service.Graph
	// CollectEnd is when the destination collected the request's last probe;
	// SelectAt is when optimal composition selection completed.
	CollectEnd time.Duration
	SelectAt   time.Duration
}

// onResult delivers the final outcome to the waiting source callback.
func (e *Engine) onResult(_ p2p.Node, msg p2p.Message) {
	res := msg.Payload.(Result)
	st, ok := e.pending[res.ReqID]
	if !ok {
		// The sender already gave up (or never asked): a successfully set-up
		// session nobody is waiting for must be released. But a duplicated
		// copy of an already-delivered result must not tear the live
		// session down.
		if res.Ok && !e.doneReqs.contains(res.ReqID) {
			e.Teardown(res.Best)
		}
		return
	}
	e.doneReqs.seen(res.ReqID)
	delete(e.pending, res.ReqID)
	st.giveUp()
	res.DiscoveryTime = st.discovery
	res.ProbeTime = st.probesOut - st.started
	res.SetupTime = e.host.Now() - st.started
	// Phase partition: discovery ends at probe launch (same event context),
	// probing runs until the destination's last collected probe, collection
	// until selection, commit until now. Monotone clamping keeps the four
	// phases an exact non-negative partition of SetupTime even when a
	// boundary is missing (e.g. the destination's timing never arrived).
	if st.selectAt > 0 {
		t1 := st.started + st.discovery
		t2 := clampTS(st.collectEnd, t1, e.host.Now())
		t3 := clampTS(st.selectAt, t2, e.host.Now())
		res.ProbePhase = t2 - t1
		res.CollectPhase = t3 - t2
		res.CommitPhase = e.host.Now() - t3
	}
	if res.Ok {
		// Admit the ingress service links (sender → the components serving
		// the pattern's source functions). Best-effort: the stream degrades
		// rather than aborts if the sender's own uplink is saturated.
		for _, fn := range res.Best.Pattern.Sources() {
			if s, ok := res.Best.Comps[fn]; ok {
				e.AllocSessionBandwidth(st.req.ID, s.Comp.Peer, st.req.Bandwidth)
			}
		}
	}
	st.cb(res)
}

// onFail handles a mid-ACK commit failure: the source gives up and tears
// down whatever was committed.
func (e *Engine) onFail(_ p2p.Node, msg p2p.Message) {
	f := msg.Payload.(failMsg)
	st, ok := e.pending[f.ReqID]
	if !ok {
		return
	}
	delete(e.pending, f.ReqID)
	st.giveUp()
	e.Teardown(f.Graph)
	st.cb(Result{
		ReqID:         f.ReqID,
		Ok:            false,
		DiscoveryTime: st.discovery,
		ProbeTime:     st.probesOut - st.started,
		SetupTime:     e.host.Now() - st.started,
	})
}

type failMsg struct {
	ReqID uint64
	Graph *service.Graph
}

// teardownMsg releases one peer's registered allocations for graph Release,
// except those also needed by Keep (nil = release everything).
type teardownMsg struct {
	Release *service.Graph
	Keep    *service.Graph
}

// Teardown releases the session's hard resource and bandwidth reservations
// across all peers of the graph. The caller is typically the source, at
// session end or when abandoning a failed setup.
func (e *Engine) Teardown(g *service.Graph) { e.TeardownExcept(g, nil) }

// TeardownExcept releases old's allocations except those shared with keep —
// the switchover primitive of proactive failure recovery: components and
// links the backup graph reuses keep running.
func (e *Engine) TeardownExcept(old, keep *service.Graph) {
	if old == nil {
		return
	}
	e.releaseLocal(old, keep)
	// Notify peers in sorted function order: iterating the Comps map would
	// reorder the teardown sends between otherwise identical runs.
	sent := make(map[p2p.NodeID]bool)
	for _, fn := range sortedFns(old) {
		p := old.Comps[fn].Comp.Peer
		if p == e.host.ID() || sent[p] {
			continue
		}
		sent[p] = true
		e.host.Send(p2p.Message{
			Type: MsgTeardown, To: p, Size: 96,
			Payload: teardownMsg{Release: old, Keep: keep},
		})
	}
}

func (e *Engine) onTeardown(_ p2p.Node, msg p2p.Message) {
	tm := msg.Payload.(teardownMsg)
	e.releaseLocal(tm.Release, tm.Keep)
}

// CommitSession hardens this peer's allocation for one component of a
// session: a live soft reservation is committed, otherwise admission is
// attempted directly. The operation is idempotent per (request, component),
// so a backup graph sharing the component with the broken graph re-commits
// for free.
func (e *Engine) CommitSession(reqID uint64, compID string, res qos.Resources) bool {
	key := softKey{reqID: reqID, compID: compID}
	if _, ok := e.hard[key]; ok {
		return true
	}
	if h, ok := e.soft[key]; ok {
		delete(e.soft, key)
		h.cancel()
		e.ledger.Commit(res)
		e.hard[key] = res
		e.armCommitTTL(key)
		return true
	}
	// The soft reservation expired before the ACK arrived. A shedding peer
	// declines this late direct admission just like it declines probes:
	// without the gate, slow ACKs would push it past the threshold the
	// overload plane promised to hold.
	if e.cfg.ShedThreshold > 0 && e.ledger.CommittedUtilization() >= e.cfg.ShedThreshold {
		return false
	}
	if !e.ledger.CommitDirect(res) {
		return false
	}
	e.hard[key] = res
	e.armCommitTTL(key)
	return true
}

// AllocSessionBandwidth admits a session's bandwidth on the overlay path
// from this peer to b, idempotently per (request, endpoint pair).
func (e *Engine) AllocSessionBandwidth(reqID uint64, b p2p.NodeID, kbps float64) bool {
	key := allocKey{reqID: reqID, a: e.host.ID(), b: b}
	if _, ok := e.bws[key]; ok {
		return true
	}
	if !e.oracle.AllocBandwidth(e.host.ID(), b, kbps) {
		return false
	}
	e.bws[key] = kbps
	e.armBandwidthTTL(key)
	return true
}

// releaseLocal frees this peer's registered allocations for graph g, except
// those keep still needs. Only registered allocations are freed, so double
// teardowns and partially set-up graphs are safe.
func (e *Engine) releaseLocal(g, keep *service.Graph) {
	req := reqFromGraph(g)
	self := e.host.ID()
	for _, fn := range sortedFns(g) {
		s := g.Comps[fn]
		if s.Comp.Peer != self {
			continue
		}
		if keep != nil && keep.Contains(s.Comp.ID) {
			continue
		}
		key := softKey{reqID: req.ID, compID: s.Comp.ID}
		if res, ok := e.hard[key]; ok {
			e.ledger.Free(res)
			delete(e.hard, key)
		}
	}
	keepPairs := make(map[allocKey]bool)
	if keep != nil {
		for _, pair := range sessionPairs(keep, self) {
			keepPairs[pair] = true
		}
	}
	for _, pair := range sessionPairs(g, self) {
		if keepPairs[pair] {
			continue
		}
		if kbps, ok := e.bws[pair]; ok {
			e.oracle.ReleaseBandwidth(pair.a, pair.b, kbps)
			delete(e.bws, pair)
		}
	}
}

// sessionPairs lists the overlay endpoint pairs peer self allocates for
// graph g: outgoing service links of its hosted components, the egress link
// of sink components, and — when self is the sender — the ingress links.
func sessionPairs(g *service.Graph, self p2p.NodeID) []allocKey {
	req := reqFromGraph(g)
	var out []allocKey
	for _, fn := range sortedFns(g) {
		s := g.Comps[fn]
		if s.Comp.Peer != self {
			continue
		}
		succs := g.Pattern.Successors(fn)
		if len(succs) == 0 {
			out = append(out, allocKey{reqID: req.ID, a: self, b: req.Dest})
		}
		for _, succ := range succs {
			if next, ok := g.Comps[succ]; ok {
				out = append(out, allocKey{reqID: req.ID, a: self, b: next.Comp.Peer})
			}
		}
	}
	if self == req.Source {
		for _, fn := range g.Pattern.Sources() {
			if s, ok := g.Comps[fn]; ok {
				out = append(out, allocKey{reqID: req.ID, a: self, b: s.Comp.Peer})
			}
		}
	}
	return out
}

// sortedFns returns g's assigned function indices in ascending order, so
// resource release and teardown traffic is ordered identically across
// identically seeded runs (map iteration would not be — and even the
// float64 bandwidth arithmetic is sensitive to operation order).
func sortedFns(g *service.Graph) []int {
	fns := make([]int, 0, len(g.Comps))
	for fn := range g.Comps {
		fns = append(fns, fn)
	}
	sort.Ints(fns)
	return fns
}

// clampTS bounds a destination-reported timestamp into [lo, hi].
func clampTS(ts, lo, hi time.Duration) time.Duration {
	if ts < lo {
		return lo
	}
	if ts > hi {
		return hi
	}
	return ts
}

// reqFromGraph recovers the per-component requirement attached to the graph
// when it was selected (stored by the collector).
func reqFromGraph(g *service.Graph) *service.Request {
	if g.Req != nil {
		return g.Req
	}
	return &service.Request{}
}
