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
	"slices"
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
	MsgCredit   = "bcp.credit"
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
	// Hardened enables per-hop probe hardening for lossy networks: each
	// probe/report transmission is acknowledged by the receiver, and an
	// unacknowledged copy is retransmitted (same UID, no new budget) after
	// probeAckTimeout, at most probeRetries times. Off (the default) leaves
	// baseline traces byte for byte as they are.
	Hardened bool
	// SelectByDelay switches optimal composition selection from the
	// load-balancing ψ objective to minimum end-to-end delay, the objective
	// of the paper's Figure 11 experiment.
	SelectByDelay bool
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
	return Config{SoftTimeout: 4 * time.Second}
}

// LoadOptions configures the overload control plane.
type LoadOptions struct {
	// Model is the per-peer processing-delay model the deployment runs
	// under: messages to a peer are delayed by Model.Delay(utilization) on
	// top of the link latency. A zero Base disables the inflation, and
	// load-aware scoring then falls back to a flat utilization weight;
	// qos.DefaultLoadModel() is the standard.
	Model qos.LoadModel
	// Aware folds each candidate peer's current utilization into the
	// composite next-hop metric and makes optimal composition selection
	// penalize graphs through loaded peers.
	Aware bool
	// Shed, when positive, is the utilization at or above which a peer sheds
	// load: it declines probe soft-allocation (the probe dies with reason
	// "shed" instead of queueing) and peers that can see its load prune it
	// from next-hop candidate lists. Zero disables shedding.
	Shed float64
}

// LoadPlane is an engine's overload control plane: the deployment's
// settings and the oracle that reports peers' utilization.
type LoadPlane struct {
	LoadOptions
	Oracle LoadOracle
}

// The collection and give-up timers.
const (
	// CollectTimeout is the base of the upper bound on how long the
	// destination collects one request's probes before running optimal
	// composition selection (§4.3). Collection closes as soon as the
	// probes' termination credit is complete (Probe.Credit); the window
	// only decides when a probe or its credit was lost on the wire or at a
	// crashed peer. The bound grows by CollectPerHop for every function in
	// the request, since probes for deeper graphs spend longer in flight.
	CollectTimeout = 1200 * time.Millisecond
	// CollectPerHop extends the collection window bound per function node.
	CollectPerHop = 400 * time.Millisecond
	// GiveUpTimeout bounds the sender's total wait for a composition
	// outcome; if every probe dies en route no destination collector ever
	// answers, and this timer converts silence into a failed Result.
	GiveUpTimeout = 10 * time.Second
)

// The protocol bounds no deployment varies.
const (
	// discoveryTimeout bounds each DHT lookup during the discovery phase.
	discoveryTimeout = 2 * time.Second
	// cacheTTL is the age at which a cached function→duplicates list is
	// refreshed; an older list still answers while its refresh is out.
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
	// probeAckTimeout is how long a hardened hop waits for a copy's
	// acknowledgement before retransmitting it, at most probeRetries times.
	probeAckTimeout = 300 * time.Millisecond
	probeRetries    = 2
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
	Walk    uint64 // the source's own walk a bcp.result answers (Confirm); 0 for a composition's
	Ok      bool
	Best    *service.Graph   // established service graph (nil if !Ok)
	Backups []*service.Graph // other qualified graphs, best-first
	// DiscoveryTime is the discovery share of SetupTime; the finer Fig. 10
	// phases come from the trace's span trees (internal/obs/span).
	DiscoveryTime time.Duration
	SetupTime     time.Duration
}

// Engine is one peer's BCP participant: it hosts components, processes
// probes, runs the destination collector when it is a request's receiver,
// and initiates composition when it is a sender.
type Engine struct {
	host   p2p.Node
	alive  func(p2p.NodeID) bool
	ledger *qos.Ledger
	reg    *registry.Registry
	oracle Oracle
	cfg    Config

	local []service.Component // components hosted on this peer

	collectors map[uint64]*collector
	pending    map[uint64]*composeState
	soft       map[softKey]softHold
	cache      map[string]List
	fetching   map[string][]waiter // lookups and refreshes in flight, by function
	// handed is what of each function's list this engine's probes have
	// handed each first-hop peer (hand): at most peers × functions entries.
	handed map[handKey]handedList

	// Session-scoped allocations: committed components and admitted service
	// links. Commits and bandwidth admissions are idempotent per key, and
	// releases free exactly what this peer registered — so a switchover to an
	// overlapping backup graph keeps shared components running, and tearing
	// down a partially set-up graph never frees another session's resources.
	// Each may be leased (hold.go), also by its request's renewal: the lease
	// timer fires at sweepAt and calls sweepFn, e.sweep bound once.
	allocs  map[allocKey]alloc
	renewed map[uint64]renewal
	sweepAt time.Duration
	sweepT  p2p.Timer
	sweepFn func()

	// held holds established service graphs whose session fate is pending an
	// external two-phase-commit decision (the federation layer's prepare
	// window). Each entry releases itself when its hold timer fires.
	held map[uint64]*heldSession

	// walks are the reverse-path walks this source started (Confirm).
	walks   map[uint64]*walk
	walkSeq uint64

	// Load, when non-nil, is the overload control plane: load-aware
	// next-hop scoring and selection (Aware) and overloaded-candidate
	// pruning and shedding (Shed). The simulation backs its oracle with the
	// cluster's ledger view.
	Load *LoadPlane
	// Trace, when non-nil, receives the probe-lifecycle and session-setup
	// events of every request this engine touches. Nil (the default)
	// disables tracing at the cost of one pointer check per site.
	Trace obs.Tracer
	// Ctr, when non-nil, accumulates this peer's discovery and shedding
	// counters, the ones no event records.
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
	// next-hop planning at every hop, selection at the destination; and the
	// table discoverAllCached hands on when the cache serves every list.
	next  nextHops
	sel   selection
	table []List
	carry []List // the lists a probe carried, rebuilt (rebuilt)

	// Hardening state (touched only when cfg.Hardened, except
	// doneReqs, which also guards against duplicated results): retransmit
	// timers keyed by in-flight message UID, duplicate-suppression sets for
	// received probe copies and report or credit copies (two sets, because a
	// leaf that is also the destination sees the same UID as both; a probe
	// either reports or returns its credit, never both), delivered requests,
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

// shed is the overload-shedding threshold: 0 when the load plane is off or
// does not shed.
func (e *Engine) shed() float64 {
	if e.Load == nil {
		return 0
	}
	return e.Load.Shed
}

type softKey struct {
	reqID  uint64
	compID string
}

// allocKey names a session allocation: component compID's, or (compID "")
// the service link's from peer a to peer b.
type allocKey struct {
	reqID  uint64
	compID string
	a, b   p2p.NodeID
}

// alloc is what an allocation holds — a component's resources or a link's
// kbps — when it was committed and when its own lease lapses (0: never).
type alloc struct {
	res     qos.Resources
	kbps    float64
	at, due time.Duration
}

// renewal is a request's last lease renewal on this peer and its deadline.
type renewal struct{ at, due time.Duration }

// softHold is one temporary reservation. seq tells a hold from a later one
// under the same key, should a cancelled expiry timer fire after all.
type softHold struct {
	res    qos.Resources
	cancel p2p.Timer
	seq    uint64
}

type composeState struct {
	req       *service.Request
	cb        func(Result)
	started   time.Duration
	discovery time.Duration
	giveUp    p2p.Timer
	// chosen is the graph the destination selected, learned from MsgChosen
	// in parallel with the reverse ACK. If the ACK chain dies on a failed
	// peer, the give-up path tears this graph down so the peers that did
	// commit release their allocations.
	chosen *service.Graph
}

// NewEngine creates the BCP engine for one peer and registers its message
// handlers. alive is the liveness view dht.New reads: next-hop selection
// skips candidates on peers it reports down, and nil treats every peer as
// up. ledger tracks this peer's end-system resources; local lists the
// components it hosts (they must already be registered with reg by the
// caller).
func NewEngine(host p2p.Node, alive func(p2p.NodeID) bool, ledger *qos.Ledger, reg *registry.Registry, oracle Oracle, local []service.Component, cfg Config) *Engine {
	if alive == nil {
		alive = func(p2p.NodeID) bool { return true }
	}
	e := &Engine{
		host:       host,
		alive:      alive,
		ledger:     ledger,
		reg:        reg,
		oracle:     oracle,
		cfg:        cfg,
		local:      local,
		collectors: make(map[uint64]*collector),
		pending:    make(map[uint64]*composeState),
		soft:       make(map[softKey]softHold),
		cache:      make(map[string]List),
		handed:     make(map[handKey]handedList),
		fetching:   make(map[string][]waiter),
		allocs:     make(map[allocKey]alloc),
		renewed:    make(map[uint64]renewal),
		held:       make(map[uint64]*heldSession),
		walks:      make(map[uint64]*walk),
		retx:       make(map[uint64]*retxState),
	}
	host.Handle(MsgProbe, e.onProbe)
	host.Handle(MsgReport, e.onReport)
	host.Handle(MsgCredit, e.onCredit)
	host.Handle(MsgProbeAck, e.onProbeAck)
	host.Handle(MsgAck, e.onAck)
	host.Handle(MsgChosen, e.onChosen)
	host.Handle(MsgResult, e.onResult)
	host.Handle(MsgFail, e.onFail)
	host.Handle(MsgTeardown, e.onTeardown)
	e.sweepFn = e.sweep
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
	err := req.Validate() // first: a rejected request may have no graph
	if e.Trace != nil || e.Met != nil {
		if e.Trace != nil {
			fns := 0
			if err == nil {
				fns = req.FGraph.NumFunctions()
			}
			e.Trace.Emit(obs.ComposeStart(e.host.Now(), e.host.ID(), req.ID, fns, req.Budget))
		}
		inner := cb
		cb = func(res Result) {
			if e.Trace != nil {
				e.Trace.Emit(obs.ComposeDone(e.host.Now(), e.host.ID(), req.ID, res.Ok, res.SetupTime))
			}
			if e.Met != nil && res.Ok {
				e.Met.SetupLatency.ObserveDuration(res.SetupTime)
				e.Met.DiscoveryLatency.ObserveDuration(res.DiscoveryTime)
			}
			inner(res)
		}
	}
	if err != nil {
		cb(Result{ReqID: req.ID, Ok: false})
		return
	}
	st := &composeState{req: req, cb: cb, started: e.host.Now()}
	e.pending[req.ID] = st
	st.giveUp = e.host.After(GiveUpTimeout, func() {
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
	e.discoverAllCached(fns, nil, nil, req.ID, discoveredFunc(func(table []List, ok bool) {
		st.discovery = e.host.Now() - st.started
		if e.Trace != nil {
			e.Trace.Emit(obs.DiscDone(e.host.Now(), e.host.ID(), req.ID, ok, st.discovery))
		}
		if !ok {
			delete(e.pending, req.ID)
			st.giveUp.Stop()
			cb(Result{ReqID: req.ID, Ok: false, DiscoveryTime: st.discovery})
			return
		}
		e.launchProbes(st, table)
	}))
}

// List is one function's duplicate list as a peer holds it — in its discovery
// cache, in a resolved table, or riding a source's probe to its first hop: the
// listing with who answered it, and when the peer that looked it up refreshes
// it. Comps is shared by every holder and never written. On a probe, Base is
// how many leading items the source handed this hop before, and Comps only the
// tail past them (0 and the whole list elsewhere).
type List struct {
	Fn string
	registry.Listing
	Expires time.Duration
	Base    int
}

// handKey names a function's list as handed to one first-hop peer;
// handedList is how many of its items were, from which answering peer's
// listing.
type handKey struct {
	peer p2p.NodeID
	fn   string
}

type handedList struct {
	root  p2p.NodeID
	items int
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

// afterDiscovery is what discoverAllCached continues into: a probe hop
// (probeHop) or, through discoveredFunc, Compose.
type afterDiscovery interface {
	discovered(table []List, ok bool)
}

// discoveredFunc adapts a function to afterDiscovery.
type discoveredFunc func(table []List, ok bool)

func (f discoveredFunc) discovered(table []List, ok bool) { f(table, ok) }

// resolution joins the lookups one discoverAllCached call waits on.
type resolution struct {
	table   []List
	pending int
	failed  bool
	next    afterDiscovery
}

// waiter is the table entry of a resolution that a function's lookup fills.
type waiter struct {
	st *resolution
	i  int
}

// discoverAllCached resolves function duplicate lists through the local
// cache, falling back to concurrent DHT lookups, one in flight per function:
// a miss on a function already being fetched — by this call, another probe or
// another request — waits for that answer. A cached list answers at once
// whatever its age, and one past its expiry sends the one refresh of it
// (refresh), unless carried — what the source's probe handed this hop (onProbe),
// nil elsewhere — has the function's list: that one serves instead. A lookup
// is attributed to span (the composition request that caused it) and handed to
// the peer hints, when not nil, names for its function (NoNode = route from
// scratch). next is continued once, with one entry per function in the order
// given, or ok=false if a lookup timed out — before discoverAllCached returns
// if the cache serves all. The table is then engine scratch, valid only inside
// that call; a table that waited on a lookup is the resolution's own.
func (e *Engine) discoverAllCached(fns []string, hints []p2p.NodeID, carried []List, span uint64, next afterDiscovery) {
	e.table = slices.Grow(e.table[:0], len(fns))[:len(fns)]
	table := e.table
	var st *resolution
	hits, now := 0, e.host.Now()
	for i, f := range fns {
		if ce, had := e.cache[f]; had {
			if ce.Expires <= now {
				// An expired list answers at once. One the source's probe
				// carried is the source's to refresh; any other is refreshed here.
				if j := slices.IndexFunc(carried, func(l List) bool { return l.Fn == f }); j >= 0 {
					ce = carried[j]
				} else {
					e.refresh(f, ce.Listing, span)
				}
			}
			table[i] = ce
			hits++
			continue
		}
		if st == nil {
			// pending starts at one for this loop itself, so the join cannot
			// complete before every lookup is out.
			table = slices.Clone(table)
			st = &resolution{table: table, pending: 1, next: next}
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
		hint := p2p.NoNode
		if hints != nil {
			hint = hints[i]
		}
		e.lookup(f, registry.Listing{Root: hint}, span)
	}
	if e.Ctr != nil {
		e.Ctr.DiscCacheHits.Add(int64(hits))
	}
	if st == nil {
		next.discovered(table, true)
		return
	}
	e.resolved(st)
}

// refresh renews the expired list known of function fn unless a lookup of fn
// is already out; nobody waits on it.
func (e *Engine) refresh(fn string, known registry.Listing, span uint64) {
	if _, out := e.fetching[fn]; out {
		return
	}
	e.fetching[fn] = nil
	if e.Ctr != nil {
		e.Ctr.DiscStale.Add(1)
	}
	e.lookup(fn, known, span)
}

// lookup sends the DHT lookup of function fn to known.Root first, which sends
// only what is new if it answered known (registry.DiscoverSpan).
func (e *Engine) lookup(fn string, known registry.Listing, span uint64) {
	if e.Ctr != nil {
		e.Ctr.DiscLookups.Add(1)
		if known.Root != p2p.NoNode {
			e.Ctr.DiscHinted.Add(1)
		}
	}
	e.reg.DiscoverSpan(fn, span, known, discoveryTimeout, func(l registry.Listing, _ int, ok bool) {
		e.fetched(fn, l, ok)
	})
}

// fetched ends the lookup of function fn: an answered list is cached there and
// then, and every resolution waiting on it gets it (or the timeout), in the
// order they came. A failed refresh leaves the expired list in place.
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
		st.next.discovered(nil, false)
		return
	}
	st.next.discovered(st.table, true)
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
	if launched == 0 {
		// Nothing to probe (e.g. no duplicates found for a source function):
		// fail fast.
		delete(e.pending, req.ID)
		st.giveUp.Stop()
		st.cb(Result{ReqID: req.ID, Ok: false, DiscoveryTime: st.discovery})
	}
}

// onChosen records which graph the destination is confirming, so the
// give-up path can release a partially committed session.
func (e *Engine) onChosen(_ p2p.Node, msg p2p.Message) {
	ch := msg.Payload.(chosenMsg)
	if st, ok := e.pending[ch.ReqID]; ok {
		st.chosen = ch.Graph
	}
}

type chosenMsg struct {
	ReqID uint64
	Graph *service.Graph
}

// onResult delivers the final outcome to the waiting source callback.
func (e *Engine) onResult(_ p2p.Node, msg p2p.Message) {
	res := msg.Payload.(Result)
	if res.Walk != 0 {
		e.endWalk(res.Walk, res.Ok, true)
		return
	}
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
	st.giveUp.Stop()
	res.DiscoveryTime = st.discovery
	res.SetupTime = e.host.Now() - st.started
	if res.Ok {
		e.admitIngress(res.Best)
	}
	st.cb(res)
}

// onFail handles a mid-ACK commit failure: the source gives up and tears
// down whatever was committed (endWalk for a walk of its own).
func (e *Engine) onFail(_ p2p.Node, msg p2p.Message) {
	f := msg.Payload.(failMsg)
	if f.Walk != 0 {
		e.endWalk(f.Walk, false, true)
		return
	}
	st, ok := e.pending[f.ReqID]
	if !ok {
		return
	}
	delete(e.pending, f.ReqID)
	st.giveUp.Stop()
	e.Teardown(f.Graph)
	st.cb(Result{
		ReqID:         f.ReqID,
		Ok:            false,
		DiscoveryTime: st.discovery,
		SetupTime:     e.host.Now() - st.started,
	})
}

type failMsg struct {
	ReqID uint64
	Walk  uint64
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
	for _, fn := range old.Fns() {
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

// releaseLocal frees this peer's registered allocations for graph g, except
// those keep still needs. Allocations are keyed by request, so keep spares a
// component only when it runs under g's request: a reactive re-composition's
// graph allocated its own. Only registered allocations are freed, so double
// teardowns and partially set-up graphs are safe.
func (e *Engine) releaseLocal(g, keep *service.Graph) {
	req := reqFromGraph(g)
	self := e.host.ID()
	if keep != nil && reqFromGraph(keep).ID != req.ID {
		keep = nil
	}
	for _, fn := range g.Fns() {
		s := g.Comps[fn]
		if s.Comp.Peer != self {
			continue
		}
		if keep == nil || !keep.Contains(s.Comp.ID) {
			e.free(allocKey{reqID: req.ID, compID: s.Comp.ID})
		}
	}
	keepPairs := make(map[allocKey]bool)
	if keep != nil {
		for _, pair := range sessionPairs(keep, self) {
			keepPairs[pair] = true
		}
	}
	for _, pair := range sessionPairs(g, self) {
		if !keepPairs[pair] {
			e.free(pair)
		}
	}
}

// free releases allocation k if this peer holds it.
func (e *Engine) free(k allocKey) {
	if a, ok := e.allocs[k]; ok && k.compID != "" {
		e.ledger.Free(a.res)
	} else if ok {
		e.oracle.ReleaseBandwidth(k.a, k.b, a.kbps)
	}
	delete(e.allocs, k)
}

// sessionPairs lists the overlay endpoint pairs peer self allocates for
// graph g: outgoing service links of its hosted components, the egress link
// of sink components, and — when self is the sender — the ingress links.
func sessionPairs(g *service.Graph, self p2p.NodeID) []allocKey {
	req := reqFromGraph(g)
	var out []allocKey
	for _, fn := range g.Fns() {
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

// reqFromGraph recovers the per-component requirement attached to the graph
// when it was selected (stored by the collector).
func reqFromGraph(g *service.Graph) *service.Request {
	if g.Req != nil {
		return g.Req
	}
	return &service.Request{}
}
