package obs

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/p2p"
)

// Violation is one broken trace invariant: a stable machine-checkable name
// plus a human-readable detail. An empty violation list is the correctness
// gate's passing verdict.
type Violation struct {
	Name   string
	Detail string
}

func (v Violation) String() string { return v.Name + ": " + v.Detail }

// Violation names reported by the Checker.
const (
	VioProbeMissingPID   = "probe-missing-pid"
	VioProbeDuplicatePID = "probe-duplicate-pid"
	VioProbeUnknownPID   = "probe-unknown-pid"
	VioProbeDoubleTerm   = "probe-double-termination"
	VioProbeConservation = "probe-conservation"
	VioProbeToDown       = "probe-to-down"
	VioBudgetExceeded    = "budget-exceeded"
	VioEstabWithoutAdmit = "establish-without-admit"
	VioExpireNoAdmit     = "expire-without-admit"
	VioDoneWithoutStart  = "done-without-start"
	VioDoneBeforeStart   = "done-before-start"
	VioMultipleDone      = "multiple-done"
	VioDoneDuration      = "done-duration"
	VioIncompleteClose   = "incomplete-at-close"
	VioCreditNoDrop      = "credit-without-drop"
	VioCreditDouble      = "credit-double"

	VioFedDoublePrepare  = "fed-double-prepare"
	VioFedDoubleResolve  = "fed-double-resolve"
	VioFedResolveNoPrep  = "fed-resolve-without-prepare"
	VioFedUnresolved     = "fed-unresolved-prepare"
	VioFedDomainMismatch = "fed-domain-mismatch"

	VioRecUnresolved       = "rec-failure-unresolved"
	VioRecResolveNoFailure = "rec-resolve-without-failure"
	VioRecProbeAfterDead   = "rec-probe-after-dead"
)

type emission struct {
	req    uint64
	ppid   uint64
	budget int
	peer   p2p.NodeID // the probed peer, which holds the probe once delivered
	ts     time.Duration
}

// Checker verifies, one event at a time, the protocol invariants that must
// hold on any complete run regardless of seed, workload, or churn: feed
// events with Add as they are decoded or emitted (TracerFunc(c.Add) rides a
// run as a sink), then call Finish for the verdict. Working state is
// O(protocol units), not O(events), so multi-GB traces check in bounded
// memory. The invariants:
//
//   - every emitted probe (probe.sent / probe.forwarded) carries a unique
//     PID and resolves exactly one way: it dies with a probe.dropped
//     record, completes with a probe.returned record, or is consumed by
//     splitting into child probes (emissions carrying its PID as their
//     PPID). Wire-copy accounting is exact per PID: a probe has
//     1 + retransmits + injected duplications copies on the wire, and a
//     probe that resolves no way at all must have lost every copy to the
//     network (net.drop of a bcp.probe message, or an injected loss or
//     partition net.fault) — while a resolved probe must have had at least
//     one surviving copy. Nothing may leak silently. The one excused leak is
//     a probe that reached a peer which then crashed (a net.down of the
//     probed peer at or after the emission, no net.up since): a dead peer
//     cannot report the probes it was holding;
//   - no probe is emitted toward a peer that is down: next-hop selection reads
//     the liveness view, so a probe.sent or probe.forwarded whose target
//     peer's latest net.down precedes it, with no net.up in between, is a
//     violation. The order is the trace's, which on the simulator is the
//     order of execution; a live runtime can interleave a crash between the
//     liveness check and the emission and would need that excused;
//   - a collector that closed before its window bound (select.done with a
//     positive Dur) was complete at close: every probe.returned of that
//     request has its probe.collected, and every probe.dropped its
//     probe.credited, at or before the select.done, and no report arrives
//     after it. This certifies that early close selected from exactly what
//     the full window would have seen. A request that had a probe copy
//     duplicated on the wire (net.fault dup) is excused — both copies'
//     lineages carry the full termination credit;
//   - a destination credits only a probe dropped in the same request, and
//     each at most once;
//   - a child probe's budget never exceeds its parent's (the split of
//     §4.2 only divides), and origin probes never exceed the request budget
//     announced in compose.start;
//   - a session establishes only after at least one peer admitted it
//     (session.admit at or before session.establish), and a component's
//     lease expires (session.expire) only where an earlier session.admit of
//     the same node, request and component committed it;
//   - compose.done happens at most once per request, after its
//     compose.start, and its Dur is exactly the time since that start,
//     failures included;
//   - the federation two-phase commit leaks nothing: every fed.prepare
//     (keyed by its sub-session PID) is resolved by exactly one fed.commit
//     or fed.abort — including the presumed-abort expiry, which traces as
//     fed.abort with note "expire" — at the same node and domain, at or
//     after the prepare. The only excused unresolved prepare is one whose
//     holding gateway crashed (a net.down at or after the prepare, no net.up
//     since): a dead peer cannot emit its own release;
//   - failure recovery resolves what it declares: every rec.failure of a
//     session is followed by exactly one rec.switchover, rec.reactive,
//     rec.dead or rec.closed before its next rec.failure, a resolution has
//     an unresolved failure before it, and no rec.probe follows a session's
//     rec.dead. An open failure is excused when its source crashed (a
//     net.down at or after it, no net.up since), or when the trace was cut inside its
//     latest rec.attempt: before the switchover's own deadline, or with the
//     re-composition the attempt names not yet at its compose.done.
//
// Each holds per run: a run.start after any event closes the run before it.
// Traces cut off mid-run (a simulator duration expiring with probes in
// flight) can legitimately fail the conservation check; the seeded CI runs
// are sized so all probing settles before the cutoff.
type Checker struct {
	closed  [][]Violation // the verdicts of the runs a run.start closed
	started bool
	vs      []Violation

	emitted  map[uint64]emission
	terms    map[uint64]int
	children map[uint64]int // pid -> child emissions split from it
	starts   map[uint64]Event
	dones    []Event
	admitMin map[uint64]time.Duration
	admitted map[Event]bool // {Node, Req, Comp} of every session.admit
	estabs   []Event
	// Per-PID wire-copy accounting: a probe starts with one copy at
	// emission; retransmits and injected duplications add copies; net.drop
	// and lethal net.fault records (loss, partition) consume them.
	extraCopies map[uint64]int
	wireDrops   map[uint64]int
	strayPIDs   []uint64 // drop/retx/fault records naming unemitted pids
	// Complete-at-close: returned probes not yet collected (pid -> request),
	// dropped probes (-> request) and their probe.credited records, and
	// requests whose collector closed early (-> select.done time).
	uncollected map[uint64]uint64
	dropped     map[uint64]uint64
	credited    map[uint64]Event
	earlyClose  map[uint64]time.Duration
	// Federation 2PC lifecycle, keyed by sub-session PID.
	fedPrep         map[uint64]Event
	fedPrepCount    map[uint64]int
	fedResolve      map[uint64]Event
	fedResolveCount map[uint64]int
	down            map[p2p.NodeID]time.Duration // peers down now, since when
	// Recovery lifecycle, keyed by session: the failure not yet resolved or
	// the latest attempt at it, and the sessions given up on; last is the
	// latest timestamp seen.
	recOpen map[uint64]Event
	recDead map[uint64]bool
	last    time.Duration
}

// NewChecker creates an empty streaming invariant checker.
func NewChecker() *Checker {
	return &Checker{
		emitted:         make(map[uint64]emission),
		terms:           make(map[uint64]int),
		children:        make(map[uint64]int),
		starts:          make(map[uint64]Event),
		admitMin:        make(map[uint64]time.Duration),
		admitted:        make(map[Event]bool),
		extraCopies:     make(map[uint64]int),
		wireDrops:       make(map[uint64]int),
		uncollected:     make(map[uint64]uint64),
		dropped:         make(map[uint64]uint64),
		credited:        make(map[uint64]Event),
		earlyClose:      make(map[uint64]time.Duration),
		fedPrep:         make(map[uint64]Event),
		fedPrepCount:    make(map[uint64]int),
		fedResolve:      make(map[uint64]Event),
		fedResolveCount: make(map[uint64]int),
		down:            make(map[p2p.NodeID]time.Duration),
		recOpen:         make(map[uint64]Event),
		recDead:         make(map[uint64]bool),
	}
}

// Add folds one event into the checker's state.
func (c *Checker) Add(ev Event) {
	if ev.Kind == KindRunStart && c.started {
		closed := append(c.closed, c.finishRun())
		*c = *NewChecker()
		c.closed = closed
	}
	c.started = true
	c.last = max(c.last, ev.TS)
	switch ev.Kind {
	case KindFedPrepare:
		if c.fedPrepCount[ev.PID] == 0 {
			c.fedPrep[ev.PID] = ev
		}
		c.fedPrepCount[ev.PID]++
	case KindFedCommit, KindFedAbort:
		if c.fedResolveCount[ev.PID] == 0 {
			c.fedResolve[ev.PID] = ev
		}
		c.fedResolveCount[ev.PID]++
	case KindNetDown:
		c.down[ev.Node] = ev.TS
	case KindNetUp:
		delete(c.down, ev.Node)
	case KindRecProbe:
		if c.recDead[ev.Req] {
			c.vs = append(c.vs, Violation{VioRecProbeAfterDead,
				fmt.Sprintf("rec.probe sess=%d at t=%v after the session's rec.dead", ev.Req, ev.TS)})
		}
	case KindRecFailure:
		if open, ok := c.recOpen[ev.Req]; ok {
			c.vs = append(c.vs, Violation{VioRecUnresolved,
				fmt.Sprintf("sess=%d: %s at t=%v still open at the next rec.failure at t=%v", ev.Req, open.Kind, open.TS, ev.TS)})
		}
		c.recOpen[ev.Req] = ev
	case KindRecAttempt:
		if _, ok := c.recOpen[ev.Req]; ok {
			c.recOpen[ev.Req] = ev
		}
	case KindRecSwitchover, KindRecReactive, KindRecDead, KindRecClosed:
		if _, ok := c.recOpen[ev.Req]; !ok {
			c.vs = append(c.vs, Violation{VioRecResolveNoFailure,
				fmt.Sprintf("%s sess=%d at t=%v resolves no open rec.failure", ev.Kind, ev.Req, ev.TS)})
		}
		delete(c.recOpen, ev.Req)
		if ev.Kind == KindRecDead {
			c.recDead[ev.Req] = true
		}
	}
	switch ev.Kind {
	case KindProbeSent, KindProbeForwarded:
		if ev.PID == 0 {
			c.vs = append(c.vs, Violation{VioProbeMissingPID,
				fmt.Sprintf("%s at t=%v node=%d req=%d has no pid", ev.Kind, ev.TS, ev.Node, ev.Req)})
			return
		}
		if _, dup := c.emitted[ev.PID]; dup {
			c.vs = append(c.vs, Violation{VioProbeDuplicatePID,
				fmt.Sprintf("pid=%d emitted twice (req=%d)", ev.PID, ev.Req)})
			return
		}
		c.emitted[ev.PID] = emission{req: ev.Req, ppid: ev.PPID, budget: ev.Budget, peer: ev.Peer, ts: ev.TS}
		if at, ok := c.down[ev.Peer]; ok {
			c.vs = append(c.vs, Violation{VioProbeToDown,
				fmt.Sprintf("pid=%d (req=%d) %s at t=%v node=%d to peer %d, down since t=%v", ev.PID, ev.Req, ev.Kind, ev.TS, ev.Node, ev.Peer, at)})
		}
		if ev.PPID != 0 {
			c.children[ev.PPID]++
		}
	case KindProbeDropped, KindProbeReturned:
		if ev.PID == 0 {
			c.vs = append(c.vs, Violation{VioProbeMissingPID,
				fmt.Sprintf("%s at t=%v node=%d req=%d has no pid", ev.Kind, ev.TS, ev.Node, ev.Req)})
			return
		}
		c.terms[ev.PID]++
		if ev.Kind == KindProbeReturned {
			c.uncollected[ev.PID] = ev.Req
		} else {
			c.dropped[ev.PID] = ev.Req
		}
	case KindProbeCredited:
		if _, twice := c.credited[ev.PID]; twice {
			c.vs = append(c.vs, Violation{VioCreditDouble,
				fmt.Sprintf("pid=%d (req=%d) credited again at t=%v", ev.PID, ev.Req, ev.TS)})
			return
		}
		c.credited[ev.PID] = ev
	case KindProbeCollected:
		delete(c.uncollected, ev.PID)
		if at, early := c.earlyClose[ev.Req]; early && ev.TS > at {
			c.vs = append(c.vs, Violation{VioIncompleteClose,
				fmt.Sprintf("pid=%d (req=%d) collected at t=%v, after the early close at t=%v", ev.PID, ev.Req, ev.TS, at)})
		}
	case KindSelectDone:
		if _, seen := c.earlyClose[ev.Req]; ev.Dur > 0 && !seen {
			c.earlyClose[ev.Req] = ev.TS
		}
	case KindComposeStart:
		if _, seen := c.starts[ev.Req]; !seen {
			c.starts[ev.Req] = ev
		}
	case KindComposeDone:
		c.dones = append(c.dones, ev)
	case KindSessionAdmit:
		if t, ok := c.admitMin[ev.Req]; !ok || ev.TS < t {
			c.admitMin[ev.Req] = ev.TS
		}
		c.admitted[Event{Node: ev.Node, Req: ev.Req, Comp: ev.Comp}] = true
	case KindSessionExpire:
		if ev.Comp != "" && !c.admitted[Event{Node: ev.Node, Req: ev.Req, Comp: ev.Comp}] {
			c.vs = append(c.vs, Violation{VioExpireNoAdmit,
				fmt.Sprintf("session.expire req=%d comp=%s at t=%v node=%d with no session.admit there", ev.Req, ev.Comp, ev.TS, ev.Node)})
		}
	case KindSessionEstab:
		c.estabs = append(c.estabs, ev)
	case KindNetDrop:
		if ev.Note == "bcp.probe" {
			if ev.PID == 0 {
				c.vs = append(c.vs, Violation{VioProbeMissingPID,
					fmt.Sprintf("net.drop of bcp.probe at t=%v %d->%d has no pid", ev.TS, ev.Node, ev.Peer)})
				return
			}
			c.wireDrops[ev.PID]++
			c.strayPIDs = append(c.strayPIDs, ev.PID)
		}
	case KindNetFault:
		if ev.Comp != "bcp.probe" {
			return
		}
		if ev.PID == 0 {
			c.vs = append(c.vs, Violation{VioProbeMissingPID,
				fmt.Sprintf("net.fault(%s) of bcp.probe at t=%v %d->%d has no pid", ev.Note, ev.TS, ev.Node, ev.Peer)})
			return
		}
		switch ev.Note {
		case FaultLoss, FaultPartition:
			c.wireDrops[ev.PID]++
		case FaultDup:
			c.extraCopies[ev.PID]++
		}
		c.strayPIDs = append(c.strayPIDs, ev.PID)
	case KindProbeRetx:
		if ev.Comp != "bcp.probe" {
			return
		}
		if ev.PID == 0 {
			c.vs = append(c.vs, Violation{VioProbeMissingPID,
				fmt.Sprintf("probe.retransmit at t=%v node=%d req=%d has no pid", ev.TS, ev.Node, ev.Req)})
			return
		}
		c.extraCopies[ev.PID]++
		c.strayPIDs = append(c.strayPIDs, ev.PID)
	}
}

// Finish returns every run's violations, those reported during Add included;
// when there are several runs, each Detail starts with its run's ordinal.
func (c *Checker) Finish() []Violation {
	runs := append(c.closed, c.finishRun())
	if len(runs) == 1 {
		return runs[0]
	}
	var vs []Violation
	for i, run := range runs {
		for _, v := range run {
			vs = append(vs, Violation{v.Name, fmt.Sprintf("run %d: %s", i+1, v.Detail)})
		}
	}
	return vs
}

// finishRun is one run's end-of-run accounting.
func (c *Checker) finishRun() []Violation {
	vs := c.vs

	// Probe accounting, in pid order for deterministic reports.
	pids := make([]uint64, 0, len(c.emitted))
	for pid := range c.emitted {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		em := c.emitted[pid]
		copies := 1 + c.extraCopies[pid]
		drops := c.wireDrops[pid]
		switch n := c.terms[pid]; {
		case n == 0:
			if c.children[pid] == 0 && drops != copies && !(drops < copies && c.crashedSince(em.peer, em.ts)) {
				// Exact conservation: an unaccounted probe must have lost
				// every wire copy — no more, no fewer — or have been
				// delivered to a peer that crashed while holding it.
				vs = append(vs, Violation{VioProbeConservation,
					fmt.Sprintf("pid=%d (req=%d) unresolved but %d of %d wire copies dropped", pid, em.req, drops, copies)})
			}
		case n > 1:
			vs = append(vs, Violation{VioProbeDoubleTerm,
				fmt.Sprintf("pid=%d (req=%d) terminated %d times", pid, em.req, n)})
		}
		if (c.terms[pid] > 0 || c.children[pid] > 0) && drops >= copies {
			// The probe made progress, so at least one copy must have
			// survived the wire.
			vs = append(vs, Violation{VioProbeConservation,
				fmt.Sprintf("pid=%d (req=%d) resolved but all %d wire copies dropped (%d drops)", pid, em.req, copies, drops)})
		}
		if em.ppid != 0 {
			parent, ok := c.emitted[em.ppid]
			if !ok {
				vs = append(vs, Violation{VioProbeUnknownPID,
					fmt.Sprintf("pid=%d (req=%d) split from unknown parent pid=%d", pid, em.req, em.ppid)})
			} else if em.budget > parent.budget {
				vs = append(vs, Violation{VioBudgetExceeded,
					fmt.Sprintf("pid=%d budget=%d exceeds parent pid=%d budget=%d (req=%d)",
						pid, em.budget, em.ppid, parent.budget, em.req)})
			}
		} else if st, ok := c.starts[em.req]; ok && st.Budget > 0 && em.budget > st.Budget {
			vs = append(vs, Violation{VioBudgetExceeded,
				fmt.Sprintf("origin pid=%d budget=%d exceeds request budget=%d (req=%d)",
					pid, em.budget, st.Budget, em.req)})
		}
	}
	// Terminations of probes that were never emitted.
	tpids := make([]uint64, 0, len(c.terms))
	for pid := range c.terms {
		if _, ok := c.emitted[pid]; !ok {
			tpids = append(tpids, pid)
		}
	}
	sort.Slice(tpids, func(i, j int) bool { return tpids[i] < tpids[j] })
	for _, pid := range tpids {
		vs = append(vs, Violation{VioProbeUnknownPID,
			fmt.Sprintf("pid=%d terminated but never emitted", pid)})
	}
	// Wire records (drops, faults, retransmits) naming probes that were
	// never emitted — deduplicated, in pid order.
	sort.Slice(c.strayPIDs, func(i, j int) bool { return c.strayPIDs[i] < c.strayPIDs[j] })
	var lastStray uint64
	for _, pid := range c.strayPIDs {
		if _, ok := c.emitted[pid]; ok || pid == lastStray {
			continue
		}
		lastStray = pid
		vs = append(vs, Violation{VioProbeUnknownPID,
			fmt.Sprintf("pid=%d has wire drop/fault/retransmit records but was never emitted", pid)})
	}

	// Complete-at-close: reports an early-closed collector never saw, and
	// dead probes whose credit it closed without.
	lost := make([]uint64, 0, len(c.uncollected))
	for pid, req := range c.uncollected {
		if _, early := c.earlyClose[req]; early {
			lost = append(lost, pid)
		}
	}
	for pid, req := range c.dropped {
		at, early := c.earlyClose[req]
		if cr, ok := c.credited[pid]; early && (!ok || cr.TS > at) {
			lost = append(lost, pid)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	for _, pid := range lost {
		req, what := c.uncollected[pid], "returned but was not collected"
		if dreq, ok := c.dropped[pid]; ok {
			req, what = dreq, "dropped but was not credited"
		}
		vs = append(vs, Violation{VioIncompleteClose,
			fmt.Sprintf("pid=%d (req=%d) %s by the early close at t=%v", pid, req, what, c.earlyClose[req])})
	}
	// Credit only comes back from a probe that died in its own request.
	cpids := make([]uint64, 0, len(c.credited))
	for pid, ev := range c.credited {
		if req, ok := c.dropped[pid]; !ok || req != ev.Req {
			cpids = append(cpids, pid)
		}
	}
	sort.Slice(cpids, func(i, j int) bool { return cpids[i] < cpids[j] })
	for _, pid := range cpids {
		vs = append(vs, Violation{VioCreditNoDrop,
			fmt.Sprintf("pid=%d credited in req=%d but not dropped there", pid, c.credited[pid].Req)})
	}

	// Composition lifecycle.
	doneSeen := make(map[uint64]bool)
	for _, ev := range c.dones {
		st, ok := c.starts[ev.Req]
		switch {
		case !ok:
			vs = append(vs, Violation{VioDoneWithoutStart,
				fmt.Sprintf("compose.done req=%d at t=%v without compose.start", ev.Req, ev.TS)})
		case ev.TS < st.TS:
			vs = append(vs, Violation{VioDoneBeforeStart,
				fmt.Sprintf("compose.done req=%d at t=%v precedes compose.start at t=%v", ev.Req, ev.TS, st.TS)})
		case ev.Dur != ev.TS-st.TS:
			vs = append(vs, Violation{VioDoneDuration,
				fmt.Sprintf("compose.done req=%d at t=%v has dur %v, %v after its compose.start", ev.Req, ev.TS, ev.Dur, ev.TS-st.TS)})
		}
		if doneSeen[ev.Req] {
			vs = append(vs, Violation{VioMultipleDone,
				fmt.Sprintf("compose.done req=%d emitted more than once", ev.Req)})
		}
		doneSeen[ev.Req] = true
	}

	// Federation 2PC lifecycle, in sub-session PID order.
	fedPIDs := make([]uint64, 0, len(c.fedPrep)+len(c.fedResolve))
	for pid := range c.fedPrep {
		fedPIDs = append(fedPIDs, pid)
	}
	for pid := range c.fedResolve {
		if _, ok := c.fedPrep[pid]; !ok {
			fedPIDs = append(fedPIDs, pid)
		}
	}
	sort.Slice(fedPIDs, func(i, j int) bool { return fedPIDs[i] < fedPIDs[j] })
	for _, pid := range fedPIDs {
		prep, prepared := c.fedPrep[pid]
		res, resolved := c.fedResolve[pid]
		if n := c.fedPrepCount[pid]; n > 1 {
			vs = append(vs, Violation{VioFedDoublePrepare,
				fmt.Sprintf("sub=%d (fed=%d) prepared %d times", pid, prep.Req, n)})
		}
		if n := c.fedResolveCount[pid]; n > 1 {
			vs = append(vs, Violation{VioFedDoubleResolve,
				fmt.Sprintf("sub=%d (fed=%d) resolved %d times", pid, res.Req, n)})
		}
		switch {
		case resolved && !prepared:
			vs = append(vs, Violation{VioFedResolveNoPrep,
				fmt.Sprintf("%s sub=%d (fed=%d) at t=%v without fed.prepare", res.Kind, pid, res.Req, res.TS)})
		case resolved && res.TS < prep.TS:
			vs = append(vs, Violation{VioFedResolveNoPrep,
				fmt.Sprintf("%s sub=%d at t=%v precedes fed.prepare at t=%v", res.Kind, pid, res.TS, prep.TS)})
		case resolved && (res.Node != prep.Node || res.Dom != prep.Dom):
			vs = append(vs, Violation{VioFedDomainMismatch,
				fmt.Sprintf("sub=%d prepared at node=%d dom=%d but resolved at node=%d dom=%d",
					pid, prep.Node, prep.Domain(), res.Node, res.Domain())})
		case !resolved:
			// A prepare may go unresolved only if its holding gateway
			// crashed after preparing and stayed down — a dead peer cannot
			// emit the release.
			if !c.crashedSince(prep.Node, prep.TS) {
				vs = append(vs, Violation{VioFedUnresolved,
					fmt.Sprintf("fed.prepare sub=%d (fed=%d) at t=%v node=%d never committed, aborted, or expired",
						pid, prep.Req, prep.TS, prep.Node)})
			}
		}
	}

	// Recovery lifecycle: failures still open, in session order. A crashed
	// source cannot finish the recovery it started, a cut run did not let an
	// attempt in flight end.
	open := make([]uint64, 0, len(c.recOpen))
	for sess := range c.recOpen {
		open = append(open, sess)
	}
	sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
	for _, sess := range open {
		ev := c.recOpen[sess]
		inFlight := ev.PID != 0 && !doneSeen[ev.PID] || c.last < ev.TS+ev.Dur
		if !inFlight && !c.crashedSince(ev.Node, ev.TS) {
			vs = append(vs, Violation{VioRecUnresolved,
				fmt.Sprintf("sess=%d: %s at t=%v node=%d never switched over, recomposed or given up", sess, ev.Kind, ev.TS, ev.Node)})
		}
	}

	// Sessions admit before they establish.
	for _, ev := range c.estabs {
		t, ok := c.admitMin[ev.Req]
		if !ok {
			vs = append(vs, Violation{VioEstabWithoutAdmit,
				fmt.Sprintf("session.establish req=%d at t=%v with no session.admit", ev.Req, ev.TS)})
		} else if t > ev.TS {
			vs = append(vs, Violation{VioEstabWithoutAdmit,
				fmt.Sprintf("session.establish req=%d at t=%v precedes first session.admit at t=%v", ev.Req, ev.TS, t)})
		}
	}

	return vs
}

// crashedSince reports whether node went down at or after ts and is still
// down: a peer that came back fires the timers that came due meanwhile, so
// what it held resolves.
func (c *Checker) crashedSince(node p2p.NodeID, ts time.Duration) bool {
	t, down := c.down[node]
	return down && t >= ts
}
