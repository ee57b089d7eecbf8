// Package span reconstructs causal span trees from obs traces: one tree per
// composition request, with child spans for decentralized discovery (DHT
// hop/deliver lineage), probe fan-out (PID/PPID parent-child links, including
// retransmits and wire casualties), destination-side collection and
// selection, reverse-path session commit, federation two-phase commit
// (prepare→commit/abort keyed by fed/sub IDs), and recovery switchover.
//
// From the trees it derives the per-phase latency breakdown of every setup
// (discovery → probe → collect → commit, an exact partition of the wall
// time), the critical path through each request (the chain of events whose
// delays sum to the setup latency), and deterministic reports: all outputs
// depend only on the trace contents, with explicit tie-breaks, so identically
// seeded runs render byte-identical reports — CI diffs them.
//
// The builder is streaming: Add folds one event at a time with per-request
// state only, so multi-gigabyte traces build without buffering the event
// slice. Events that cannot be attributed — probes with unknown parents,
// collections of never-emitted probes, requests missing their compose.start —
// are reported as Orphans rather than silently dropped.
package span

import (
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
)

// Span is one node in a request's causal tree: a named interval on one peer,
// with children ordered by (Start, insertion).
type Span struct {
	// Kind groups spans for reporting: "compose", "discovery", "dht",
	// "probing", "probe", "collect", "commit", "admit", "reject", "2pc",
	// "sub", "recovery", "establish".
	Kind string
	// Name is the human-readable label shown in waterfalls.
	Name string
	// Node is the peer the span is anchored on (the emitter of its events).
	Node p2p.NodeID
	// Start and End bound the span on the shared virtual clock. Point events
	// have Start == End.
	Start, End time.Duration
	// Events counts trace records folded into this span (excluding children).
	Events int
	// Note carries the outcome or detail ("returned", "dropped(qos)", ...).
	Note string
	// Children are the causally nested spans, ordered deterministically.
	Children []*Span
}

// Dur returns the span's length.
func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Walk visits the span and its descendants depth-first, pre-order.
func (s *Span) Walk(fn func(sp *Span, depth int)) { s.walk(fn, 0) }

func (s *Span) walk(fn func(*Span, int), depth int) {
	fn(s, depth)
	for _, c := range s.Children {
		c.walk(fn, depth+1)
	}
}

// Phases is the per-request latency partition. Discovery + Probe + Collect +
// Commit + Wait always equals the request's wall time: the four named phases
// are bounded by explicit trace events (disc.done, the last probe.collected,
// select.done, compose.done) and Wait absorbs whatever interval has no
// boundary to claim it (e.g. a failed setup waiting out its give-up timer).
type Phases struct {
	Discovery time.Duration // compose.start → disc.done
	Probe     time.Duration // disc.done → last probe.collected
	Collect   time.Duration // last probe.collected → select.done
	Commit    time.Duration // select.done → compose.done
	Wait      time.Duration // unattributed remainder
}

// Named returns the time attributed to the four named phases.
func (p Phases) Named() time.Duration { return p.Discovery + p.Probe + p.Collect + p.Commit }

// Total returns the wall time the partition covers.
func (p Phases) Total() time.Duration { return p.Named() + p.Wait }

// Attribution returns the fraction of wall time claimed by named phases,
// in [0,1]; 1 for a zero-length request.
func (p Phases) Attribution() float64 {
	if p.Total() == 0 {
		return 1
	}
	return float64(p.Named()) / float64(p.Total())
}

// Step is one hop of a request's critical path: the event chain whose gaps
// sum to the setup latency. Gap is the time since the previous step.
type Step struct {
	TS   time.Duration
	Node p2p.NodeID
	What string
	Gap  time.Duration
}

// Tree is the reconstructed causal view of one request.
type Tree struct {
	Req  uint64
	Ok   bool // compose.done reported ok
	Done bool // a compose.done was seen
	// Root is the compose span; Wall its length.
	Root *Span
	Wall time.Duration
	// Phases partitions Wall; Critical is the event chain ending at the
	// request's terminal event (compose.done, or the last event seen when
	// the trace is truncated).
	Phases   Phases
	Critical []Step
	// Subs are federated sub-compositions claimed by this request's 2PC
	// (their trees nest here instead of appearing at the top level).
	Subs []*Tree
}

// Orphan is an event the builder could not attribute to a well-formed tree.
type Orphan struct {
	Ev     obs.Event
	Reason string
}

// Forest is the result of building a whole trace.
type Forest struct {
	// Trees holds the top-level request trees, grouped by run and sorted by
	// request ID within each run; federated sub-compositions hang off their
	// parent's Subs. Sweep traces (spiderbench) concatenate many independent
	// cells into one file — a virtual-clock regression marks each boundary —
	// so request and probe IDs are scoped per run, never across runs.
	Trees []*Tree
	// Runs counts the independent runs the trace concatenates (1 for a plain
	// spidersim trace, one per cell for an experiment sweep).
	Runs int
	// Orphans lists unattributable events, in trace order.
	Orphans []Orphan
	// Events is the total number of events folded in and Kinds the same
	// count per event kind, over all runs; WireDrops counts net.drop/net.fault
	// records that referenced no known probe (non-probe protocol units —
	// reports, pings — whose identity the builder does not track).
	Events    int
	Kinds     map[string]int
	WireDrops int
}

// Tree finds a request's tree, descending into federated subs. Nil if the
// trace never saw the request.
func (f *Forest) Tree(req uint64) *Tree {
	var find func(ts []*Tree) *Tree
	find = func(ts []*Tree) *Tree {
		for _, t := range ts {
			if t.Req == req {
				return t
			}
			if sub := find(t.Subs); sub != nil {
				return sub
			}
		}
		return nil
	}
	return find(f.Trees)
}

// All visits every tree including federated subs, parents before children,
// in request-ID order at each level.
func (f *Forest) All(fn func(*Tree)) {
	var walk func(ts []*Tree)
	walk = func(ts []*Tree) {
		for _, t := range ts {
			fn(t)
			walk(t.Subs)
		}
	}
	walk(f.Trees)
}

// Builder folds a trace into per-request span state one event at a time.
// A timestamp regression (the virtual clock starting over) closes the
// current run and opens a fresh one: request IDs and probe UIDs restart per
// run in concatenated sweep traces, so linkage state never leaks across the
// boundary.
type Builder struct {
	reqs     map[uint64]*reqState
	pidReq   map[uint64]uint64 // probe identity → owning request, this run
	archived []map[uint64]*reqState
	lastTS   time.Duration
	orphans  []Orphan
	events   int
	kinds    map[string]int
	wire     int
}

type probeInfo struct {
	emit    obs.Event // probe.sent / probe.forwarded
	hasEmit bool
	term    obs.Event // probe.dropped / probe.returned
	hasTerm bool
	retx    int
	wire    int // net.drop / killing net.fault records for this pid
}

type fedSub struct {
	prep, res       obs.Event
	hasPrep, hasRes bool
}

type reqState struct {
	req                               uint64
	start, discDone, selectDone, done obs.Event
	hasStart, hasDisc                 bool
	hasSelect, hasDone                bool
	last                              time.Duration // latest event timestamp

	collected []obs.Event
	probes    map[uint64]*probeInfo
	pids      []uint64 // emission/first-reference order
	dht       []obs.Event
	commits   []obs.Event // session.admit / session.reject, trace order
	estabs    []obs.Event
	rec       []obs.Event
	fed       map[uint64]*fedSub
	fedSubs   []uint64 // first-reference order
}

// NewBuilder creates an empty streaming span builder.
func NewBuilder() *Builder {
	return &Builder{reqs: make(map[uint64]*reqState), pidReq: make(map[uint64]uint64), kinds: make(map[string]int)}
}

func (b *Builder) state(req uint64) *reqState {
	rs, ok := b.reqs[req]
	if !ok {
		rs = &reqState{req: req, probes: make(map[uint64]*probeInfo), fed: make(map[uint64]*fedSub)}
		b.reqs[req] = rs
	}
	return rs
}

func (rs *reqState) probe(pid uint64) *probeInfo {
	pi, ok := rs.probes[pid]
	if !ok {
		pi = &probeInfo{}
		rs.probes[pid] = pi
		rs.pids = append(rs.pids, pid)
	}
	return pi
}

func (b *Builder) orphan(ev obs.Event, reason string) {
	b.orphans = append(b.orphans, Orphan{Ev: ev, Reason: reason})
}

// Add folds one event. Events are expected in trace (timestamp) order, the
// order every sink writes them in; a timestamp going backward means a new
// run started (sweep traces concatenate cells).
func (b *Builder) Add(ev obs.Event) {
	b.events++
	b.kinds[ev.Kind]++
	if ev.TS < b.lastTS {
		b.archived = append(b.archived, b.reqs)
		b.reqs = make(map[uint64]*reqState)
		b.pidReq = make(map[uint64]uint64)
	}
	b.lastTS = ev.TS
	switch ev.Kind {
	case obs.KindNetDrop, obs.KindNetFault:
		// Wire records carry the casualty's protocol identity but no request;
		// probes resolve through the global pid index, everything else (report
		// legs, recovery pings, maintenance) is counted but not attributed.
		if ev.Kind == obs.KindNetFault && ev.Note != obs.FaultLoss && ev.Note != obs.FaultPartition {
			return // dup/jitter faults kill nothing
		}
		if req, ok := b.pidReq[ev.PID]; ev.PID != 0 && ok {
			rs := b.reqs[req]
			rs.probe(ev.PID).wire++
			rs.note(ev.TS)
		} else {
			b.wire++
		}
		return
	case obs.KindNetDown, obs.KindNetUp:
		return // liveness records are global; the summary counts them by kind
	}
	if ev.Req == 0 {
		if ev.Kind == obs.KindDHTHop || ev.Kind == obs.KindDHTDeliver {
			return // maintenance routing (puts, joins) belongs to no request
		}
		b.orphan(ev, "event without request ID")
		return
	}
	rs := b.state(ev.Req)
	rs.note(ev.TS)
	switch ev.Kind {
	case obs.KindComposeStart:
		rs.start, rs.hasStart = ev, true
	case obs.KindDiscDone:
		rs.discDone, rs.hasDisc = ev, true
	case obs.KindSelectDone:
		rs.selectDone, rs.hasSelect = ev, true
	case obs.KindComposeDone:
		rs.done, rs.hasDone = ev, true
	case obs.KindProbeSent, obs.KindProbeForwarded:
		pi := rs.probe(ev.PID)
		if pi.hasEmit {
			b.orphan(ev, "duplicate probe emission")
			return
		}
		pi.emit, pi.hasEmit = ev, true
		b.pidReq[ev.PID] = ev.Req
		if ev.PPID != 0 {
			if _, ok := rs.probes[ev.PPID]; !ok {
				b.orphan(ev, "probe split from unknown parent")
			}
		}
	case obs.KindProbeDropped, obs.KindProbeReturned:
		pi := rs.probe(ev.PID)
		if !pi.hasEmit {
			b.orphan(ev, "termination of unknown probe")
		}
		pi.term, pi.hasTerm = ev, true
	case obs.KindProbeRetx:
		if pi, ok := rs.probes[ev.PID]; ok {
			pi.retx++
		} else {
			b.orphan(ev, "retransmit of unknown probe")
		}
	case obs.KindProbeCollected:
		if ev.PID != 0 {
			if _, ok := rs.probes[ev.PID]; !ok {
				b.orphan(ev, "collected unknown probe")
			}
		}
		rs.collected = append(rs.collected, ev)
	case obs.KindDHTHop, obs.KindDHTDeliver, obs.KindDHTGetRetry, obs.KindDHTGetFail:
		rs.dht = append(rs.dht, ev)
	case obs.KindSessionAdmit, obs.KindSessionReject:
		rs.commits = append(rs.commits, ev)
	case obs.KindSessionEstab:
		rs.estabs = append(rs.estabs, ev)
	case obs.KindRecProbe, obs.KindRecFailure, obs.KindRecAttempt, obs.KindRecSwitchover, obs.KindRecReactive, obs.KindRecDead:
		rs.rec = append(rs.rec, ev)
	case obs.KindFedPrepare:
		fs := rs.fedState(ev.PID)
		fs.prep, fs.hasPrep = ev, true
	case obs.KindFedCommit, obs.KindFedAbort:
		fs := rs.fedState(ev.PID)
		if !fs.hasPrep {
			b.orphan(ev, "2PC resolve without prepare")
		}
		fs.res, fs.hasRes = ev, true
	default:
		b.orphan(ev, "unknown event kind")
	}
}

func (rs *reqState) note(ts time.Duration) {
	if ts > rs.last {
		rs.last = ts
	}
}

func (rs *reqState) fedState(sub uint64) *fedSub {
	fs, ok := rs.fed[sub]
	if !ok {
		fs = &fedSub{}
		rs.fed[sub] = fs
		rs.fedSubs = append(rs.fedSubs, sub)
	}
	return fs
}

// Build assembles the forest from everything added so far. It is
// non-destructive: the builder keeps accepting events and Build can run
// again. Output is fully deterministic in the input events.
func (b *Builder) Build() *Forest {
	f := &Forest{Events: b.events, Kinds: maps.Clone(b.kinds), WireDrops: b.wire}
	f.Orphans = append(f.Orphans, b.orphans...)
	for _, run := range b.archived {
		buildRun(f, run)
		f.Runs++
	}
	buildRun(f, b.reqs)
	f.Runs++
	return f
}

// buildRun assembles one run's trees (request and probe IDs are scoped to a
// run) and appends its unclaimed roots to the forest.
func buildRun(f *Forest, reqs map[uint64]*reqState) {
	ids := make([]uint64, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	trees := make(map[uint64]*Tree, len(ids))
	for _, id := range ids {
		rs := reqs[id]
		if !rs.hasStart {
			f.Orphans = append(f.Orphans, Orphan{
				Ev:     obs.Event{TS: rs.last, Kind: "(request)", Node: p2p.NoNode, Req: rs.req, Peer: p2p.NoNode},
				Reason: "request without compose.start",
			})
		}
		trees[id] = buildTree(rs)
	}

	// Federation linkage: a tree whose 2PC names sub-session IDs that exist
	// as requests of their own claims those trees as nested segments.
	claimed := make(map[uint64]bool)
	for _, id := range ids {
		rs := reqs[id]
		if len(rs.fedSubs) == 0 {
			continue
		}
		parent := trees[id]
		for _, sub := range rs.fedSubs {
			if st, ok := trees[sub]; ok && sub != id && !claimed[sub] {
				claimed[sub] = true
				parent.Subs = append(parent.Subs, st)
				parent.Root.Children = append(parent.Root.Children, st.Root)
			}
		}
		sortSpans(parent.Root.Children)
		fedCritical(parent, rs)
	}
	for _, id := range ids {
		if !claimed[id] {
			f.Trees = append(f.Trees, trees[id])
		}
	}
}

// clamp bounds ts into [lo, hi].
func clamp(ts, lo, hi time.Duration) time.Duration {
	if ts < lo {
		return lo
	}
	if ts > hi {
		return hi
	}
	return ts
}

func sortSpans(s []*Span) {
	sort.SliceStable(s, func(i, j int) bool { return s[i].Start < s[j].Start })
}

// buildTree assembles one request's span tree, phase partition, and critical
// path from its accumulated state.
func buildTree(rs *reqState) *Tree {
	t := &Tree{Req: rs.req, Done: rs.hasDone}
	t0 := rs.start.TS
	if !rs.hasStart {
		t0 = firstTS(rs)
	}
	t4 := rs.last
	if rs.hasDone {
		t4 = rs.done.TS
		t.Ok = rs.done.Note == "ok"
	}
	if t4 < t0 {
		t4 = t0
	}
	t.Wall = t4 - t0

	rootNote := "incomplete"
	if rs.hasDone {
		rootNote = rs.done.Note
	}
	root := &Span{Kind: "compose", Name: fmt.Sprintf("compose req=%d", rs.req),
		Node: rs.start.Node, Start: t0, End: t4, Events: 1, Note: rootNote}
	t.Root = root

	// Phase boundaries (clamped monotone into [t0, t4]).
	t1 := t0
	if rs.hasDisc {
		t1 = clamp(rs.discDone.TS, t0, t4)
	} else if len(rs.pids) > 0 {
		// Pre-disc.done traces: fall back to the first probe emission.
		if pi := rs.probes[rs.pids[0]]; pi.hasEmit {
			t1 = clamp(pi.emit.TS, t0, t4)
		}
	}
	lastCollect, haveCollect := lastCollected(rs)
	t2 := clamp(lastCollect, t1, t4)
	t3 := t2
	if rs.hasSelect {
		t3 = clamp(rs.selectDone.TS, t2, t4)
	}

	// Discovery span, with the request's DHT traffic split at the phase
	// boundary: lookups launched by intermediate probe hops (cache misses
	// mid-fan-out) land in the probing span instead.
	disc := &Span{Kind: "discovery", Name: "discovery", Node: rs.start.Node, Start: t0, End: t1}
	if rs.hasDisc {
		disc.Events = 1
		disc.Note = rs.discDone.Note
	}
	var discDHT, probeDHT []obs.Event
	for _, ev := range rs.dht {
		if ev.TS <= t1 {
			discDHT = append(discDHT, ev)
		} else {
			probeDHT = append(probeDHT, ev)
		}
	}
	if sp := dhtSpan(discDHT); sp != nil {
		disc.Children = append(disc.Children, sp)
	}
	root.Children = append(root.Children, disc)

	// Probe fan-out span with the PID/PPID lineage nested beneath it.
	probing := &Span{Kind: "probing", Name: "probe fan-out", Node: rs.start.Node, Start: t1, End: t2}
	if !haveCollect {
		probing.End = t4
	}
	if sp := dhtSpan(probeDHT); sp != nil {
		probing.Children = append(probing.Children, sp)
	}
	collectTS := make(map[uint64]time.Duration, len(rs.collected))
	for _, ev := range rs.collected {
		if ev.PID != 0 {
			collectTS[ev.PID] = ev.TS
		}
	}
	spans := make(map[uint64]*Span, len(rs.pids))
	for _, pid := range rs.pids {
		spans[pid] = probeSpan(pid, rs.probes[pid], collectTS)
	}
	splits := make(map[uint64]int, len(rs.pids))
	for _, pid := range rs.pids {
		pi := rs.probes[pid]
		if pi.hasEmit && pi.emit.PPID != 0 {
			if parent, ok := spans[pi.emit.PPID]; ok {
				parent.Children = append(parent.Children, spans[pid])
				splits[pi.emit.PPID]++
				// The parent lived until it split at the child's emission.
				if spans[pid].Start > parent.End {
					parent.End = spans[pid].Start
				}
				continue
			}
		}
		probing.Children = append(probing.Children, spans[pid])
	}
	for pid, n := range splits {
		if sp := spans[pid]; sp.Note == "live" {
			sp.Note = fmt.Sprintf("split ×%d", n)
		}
	}
	for _, pid := range rs.pids {
		sortSpans(spans[pid].Children)
	}
	sortSpans(probing.Children)
	if len(rs.pids) > 0 || haveCollect {
		root.Children = append(root.Children, probing)
	}

	// Residual collection window and destination selection.
	if rs.hasSelect {
		note := fmt.Sprintf("%d collected; %d candidates, %d qualified",
			len(rs.collected), rs.selectDone.Hops, rs.selectDone.Budget)
		if rs.selectDone.Note != "ok" {
			note += ", " + rs.selectDone.Note
		}
		root.Children = append(root.Children, &Span{Kind: "collect", Name: "collect+select",
			Node: rs.selectDone.Node, Start: t2, End: t3, Events: 1 + len(rs.collected), Note: note})
	}

	// Reverse-path session commit with per-peer admissions.
	if rs.hasSelect || len(rs.commits) > 0 {
		commit := &Span{Kind: "commit", Name: "session commit", Node: rs.start.Node, Start: t3, End: t4}
		for _, ev := range rs.commits {
			kind, name := "admit", "admit "+ev.Comp
			if ev.Kind == obs.KindSessionReject {
				kind, name = "reject", "reject "+ev.Comp+" ("+ev.Note+")"
			}
			commit.Children = append(commit.Children, &Span{Kind: kind, Name: name,
				Node: ev.Node, Start: ev.TS, End: ev.TS, Events: 1})
		}
		root.Children = append(root.Children, commit)
	}

	// Federation 2PC: one child per sub-session, prepare → commit/abort.
	if len(rs.fedSubs) > 0 {
		root.Children = append(root.Children, fedSpan(rs, t4))
	}

	// Recovery activity on the established session.
	if sp := recSpan(rs); sp != nil {
		root.Children = append(root.Children, sp)
	}
	for _, ev := range rs.estabs {
		root.Children = append(root.Children, &Span{Kind: "establish",
			Name: fmt.Sprintf("session adopted (%d backups)", ev.Budget),
			Node: ev.Node, Start: ev.TS, End: ev.TS, Events: 1})
	}
	sortSpans(root.Children)

	// Phase partition. Federated parents (no probing of their own) partition
	// over segment prepare / decision instead.
	if len(rs.pids) == 0 && len(rs.fedSubs) > 0 {
		t.Phases = fedPhases(rs, t0, t4)
	} else {
		t.Phases.Discovery = t1 - t0
		if rs.hasSelect {
			t.Phases.Probe = t2 - t1
			t.Phases.Collect = t3 - t2
			t.Phases.Commit = t4 - t3
		} else if haveCollect {
			t.Phases.Probe = t2 - t1
			t.Phases.Wait = t4 - t2
		} else {
			t.Phases.Wait = t4 - t1
		}
	}

	t.Critical = criticalPath(rs, t0, t4)
	return t
}

func firstTS(rs *reqState) time.Duration {
	first := rs.last
	check := func(ts time.Duration) {
		if ts < first {
			first = ts
		}
	}
	for _, pid := range rs.pids {
		if rs.probes[pid].hasEmit {
			check(rs.probes[pid].emit.TS)
		}
	}
	for _, ev := range rs.dht {
		check(ev.TS)
	}
	for _, sub := range rs.fedSubs {
		if rs.fed[sub].hasPrep {
			check(rs.fed[sub].prep.TS)
		}
	}
	return first
}

// lastCollected returns the timestamp of the destination's last collected
// probe, reporting whether any probe was collected at all.
func lastCollected(rs *reqState) (time.Duration, bool) {
	var ts time.Duration
	for _, ev := range rs.collected {
		if ev.TS > ts {
			ts = ev.TS
		}
	}
	return ts, len(rs.collected) > 0
}

func dhtSpan(evs []obs.Event) *Span {
	if len(evs) == 0 {
		return nil
	}
	var hops, delivered, retries int
	sp := &Span{Kind: "dht", Node: evs[0].Node, Start: evs[0].TS, End: evs[0].TS, Events: len(evs)}
	for _, ev := range evs {
		if ev.TS < sp.Start {
			sp.Start = ev.TS
		}
		if ev.TS > sp.End {
			sp.End = ev.TS
		}
		switch ev.Kind {
		case obs.KindDHTHop:
			hops++
		case obs.KindDHTDeliver:
			delivered++
		case obs.KindDHTGetRetry, obs.KindDHTGetFail:
			retries++
		}
	}
	sp.Name = fmt.Sprintf("dht lookups (%d hops, %d delivered)", hops, delivered)
	if retries > 0 {
		sp.Note = fmt.Sprintf("%d timeouts", retries)
	}
	return sp
}

func probeSpan(pid uint64, pi *probeInfo, collectTS map[uint64]time.Duration) *Span {
	sp := &Span{Kind: "probe", Name: fmt.Sprintf("probe %d", pid), Events: 1}
	if pi.hasEmit {
		sp.Node = pi.emit.Node
		sp.Start, sp.End = pi.emit.TS, pi.emit.TS
		if pi.emit.Comp != "" {
			sp.Name = "probe " + pi.emit.Comp
		}
	}
	note := "live"
	switch {
	case pi.hasTerm && pi.term.Kind == obs.KindProbeReturned:
		note = "returned"
		sp.End = pi.term.TS
	case pi.hasTerm:
		note = "dropped(" + pi.term.Note + ")"
		sp.End = pi.term.TS
	case pi.wire > 0:
		note = "lost"
	}
	if ts, ok := collectTS[pid]; ok && ts > sp.End {
		sp.End = ts
		note += ", collected"
	}
	if pi.retx > 0 {
		note += fmt.Sprintf(", %d retx", pi.retx)
	}
	sp.Note = note
	sp.Events += pi.retx + pi.wire
	if pi.hasTerm {
		sp.Events++
	}
	return sp
}

func fedSpan(rs *reqState, t4 time.Duration) *Span {
	sp := &Span{Kind: "2pc", Name: "federation 2PC", Node: rs.start.Node}
	first := true
	for _, sub := range rs.fedSubs {
		fs := rs.fed[sub]
		c := &Span{Kind: "sub", Events: 1}
		if fs.hasPrep {
			c.Node = fs.prep.Node
			c.Start = fs.prep.TS
			c.Name = fmt.Sprintf("sub=%d dom=%d", sub, fs.prep.Domain())
		} else {
			c.Node = fs.res.Node
			c.Start = fs.res.TS
			c.Name = fmt.Sprintf("sub=%d dom=%d", sub, fs.res.Domain())
		}
		c.End = c.Start
		switch {
		case fs.hasRes && fs.res.Kind == obs.KindFedCommit:
			c.Note = "committed"
			c.End = fs.res.TS
			c.Events++
		case fs.hasRes:
			c.Note = "aborted(" + fs.res.Note + ")"
			c.End = fs.res.TS
			c.Events++
		default:
			c.Note = "unresolved"
			c.End = t4
		}
		if first || c.Start < sp.Start {
			sp.Start = c.Start
		}
		if first || c.End > sp.End {
			sp.End = c.End
		}
		first = false
		sp.Children = append(sp.Children, c)
	}
	sortSpans(sp.Children)
	return sp
}

func recSpan(rs *reqState) *Span {
	if len(rs.rec) == 0 {
		return nil
	}
	pings := 0
	sp := &Span{Kind: "recovery", Name: "recovery", Node: rs.rec[0].Node,
		Start: rs.rec[0].TS, End: rs.rec[0].TS, Events: len(rs.rec)}
	for _, ev := range rs.rec {
		if ev.TS > sp.End {
			sp.End = ev.TS
		}
		switch ev.Kind {
		case obs.KindRecProbe:
			pings++
		case obs.KindRecFailure:
			sp.Children = append(sp.Children, &Span{Kind: "recovery", Name: "failure detected",
				Node: ev.Node, Start: ev.TS, End: ev.TS, Events: 1})
		case obs.KindRecSwitchover, obs.KindRecReactive, obs.KindRecDead:
			sp.Children = append(sp.Children, &Span{Kind: "recovery",
				Name: ev.Kind, Note: fmt.Sprintf("broken %s", ev.Dur),
				Node: ev.Node, Start: ev.TS, End: ev.TS, Events: 1})
		}
	}
	sp.Note = fmt.Sprintf("%d keepalives", pings)
	sortSpans(sp.Children)
	return sp
}

// fedPhases partitions a federated parent request: segment composition +
// prepare up to the last prepare, then decision + commit fan-out.
func fedPhases(rs *reqState, t0, t4 time.Duration) Phases {
	var lastPrep time.Duration
	prepared := false
	for _, sub := range rs.fedSubs {
		if fs := rs.fed[sub]; fs.hasPrep {
			prepared = true
			if fs.prep.TS > lastPrep {
				lastPrep = fs.prep.TS
			}
		}
	}
	if !prepared {
		return Phases{Wait: t4 - t0}
	}
	lastPrep = clamp(lastPrep, t0, t4)
	return Phases{Probe: lastPrep - t0, Commit: t4 - lastPrep}
}

// criticalPath walks the request backward from its terminal event to
// compose.start: done ← session-commit chain ← select.done ← last collected
// probe ← its PID/PPID lineage to the origin ← disc.done ← compose.start.
// Ties (equal collection timestamps) break toward the smaller PID, so the
// path is deterministic in the trace contents.
func criticalPath(rs *reqState, t0, t4 time.Duration) []Step {
	var steps []Step
	add := func(ts time.Duration, node p2p.NodeID, what string) {
		steps = append(steps, Step{TS: ts, Node: node, What: what})
	}
	if rs.hasStart {
		add(t0, rs.start.Node, "compose.start")
	}
	if rs.hasDisc {
		add(rs.discDone.TS, rs.discDone.Node, "disc.done ("+rs.discDone.Note+")")
	}

	// The probe whose collection completed the candidate set last.
	var lastEv obs.Event
	haveLast := false
	for _, ev := range rs.collected {
		if !haveLast || ev.TS > lastEv.TS || (ev.TS == lastEv.TS && ev.PID < lastEv.PID) {
			lastEv, haveLast = ev, true
		}
	}
	if haveLast && lastEv.PID != 0 {
		// Lineage chain origin → leaf, bounded against PPID cycles.
		var chain []uint64
		for pid, hops := lastEv.PID, 0; pid != 0 && hops <= len(rs.pids); hops++ {
			pi, ok := rs.probes[pid]
			if !ok || !pi.hasEmit {
				break
			}
			chain = append(chain, pid)
			pid = pi.emit.PPID
		}
		for i := len(chain) - 1; i >= 0; i-- {
			pi := rs.probes[chain[i]]
			what := "probe"
			if pi.emit.Comp != "" {
				what = "probe " + pi.emit.Comp
			}
			add(pi.emit.TS, pi.emit.Node, fmt.Sprintf("%s → n%d", what, pi.emit.Peer))
		}
		if pi, ok := rs.probes[lastEv.PID]; ok && pi.hasTerm && pi.term.Kind == obs.KindProbeReturned {
			add(pi.term.TS, pi.term.Node, fmt.Sprintf("report → n%d", pi.term.Peer))
		}
	}
	if haveLast {
		add(lastEv.TS, lastEv.Node, "probe.collected (last)")
	}
	if rs.hasSelect {
		add(rs.selectDone.TS, rs.selectDone.Node, fmt.Sprintf("select.done (%d qualified)", rs.selectDone.Budget))
		for _, ev := range rs.commits {
			if ev.TS < rs.selectDone.TS || (rs.hasDone && ev.TS > rs.done.TS) {
				continue // admission for an earlier attempt or late backup work
			}
			if ev.Kind == obs.KindSessionAdmit {
				add(ev.TS, ev.Node, "admit "+ev.Comp)
			} else {
				add(ev.TS, ev.Node, "reject "+ev.Comp+" ("+ev.Note+")")
			}
		}
	}
	if rs.hasDone {
		add(t4, rs.done.Node, "compose.done ("+rs.done.Note+")")
	} else {
		add(rs.last, p2p.NoNode, "(trace ends; no compose.done)")
	}
	finishSteps(steps)
	return steps
}

// fedCritical replaces a federated parent's critical path once its segments
// are linked: the slowest-preparing segment's own critical path, then the
// 2PC prepare/decision chain, ending at the parent's compose.done.
func fedCritical(t *Tree, rs *reqState) {
	var lastSub uint64
	var lastPrep obs.Event
	have := false
	for _, sub := range rs.fedSubs {
		fs := rs.fed[sub]
		if !fs.hasPrep {
			continue
		}
		if !have || fs.prep.TS > lastPrep.TS || (fs.prep.TS == lastPrep.TS && sub < lastSub) {
			lastSub, lastPrep, have = sub, fs.prep, true
		}
	}
	if !have {
		return
	}
	var steps []Step
	if rs.hasStart {
		steps = append(steps, Step{TS: rs.start.TS, Node: rs.start.Node, What: "compose.start"})
	}
	for _, sub := range t.Subs {
		if sub.Req == lastSub {
			for _, st := range sub.Critical {
				st.What = fmt.Sprintf("[seg %d] %s", lastSub, st.What)
				st.Gap = 0
				steps = append(steps, st)
			}
		}
	}
	steps = append(steps, Step{TS: lastPrep.TS, Node: lastPrep.Node,
		What: fmt.Sprintf("fed.prepare sub=%d dom=%d (last)", lastSub, lastPrep.Domain())})
	var lastRes obs.Event
	haveRes := false
	for _, sub := range rs.fedSubs {
		if fs := rs.fed[sub]; fs.hasRes {
			if !haveRes || fs.res.TS > lastRes.TS {
				lastRes, haveRes = fs.res, true
			}
		}
	}
	if haveRes {
		steps = append(steps, Step{TS: lastRes.TS, Node: lastRes.Node, What: lastRes.Kind + " (last)"})
	}
	if rs.hasDone {
		steps = append(steps, Step{TS: rs.done.TS, Node: rs.done.Node, What: "compose.done (" + rs.done.Note + ")"})
	}
	finishSteps(steps)
	t.Critical = steps
}

// finishSteps sorts steps by time (stable, preserving causal insertion order
// on ties) and fills in the inter-step gaps.
func finishSteps(steps []Step) {
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].TS < steps[j].TS })
	for i := range steps {
		if i > 0 {
			steps[i].Gap = steps[i].TS - steps[i-1].TS
		}
	}
}
