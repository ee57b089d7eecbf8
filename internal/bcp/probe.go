package bcp

import (
	"sort"
	"time"

	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/service"
)

// Probe is the composition probing message (§4.1 step 1). Each probe walks
// one branch of one composition pattern, accumulating per-hop QoS and
// resource snapshots.
type Probe struct {
	ReqID      uint64
	Req        *service.Request
	PatternIdx int
	Pattern    *fgraph.Graph
	Budget     int // remaining probing budget carried by this probe
	// UID identifies this probe instance uniquely across the run (emitting
	// node in the high bits, per-engine sequence in the low bits), so trace
	// checkers can account for every probe exactly. 0 only on the synthetic
	// pre-launch root, which is never put on the wire.
	UID uint64
	// Credit is this probe's exact share of the request's TotalCredit, for
	// weight-throwing termination detection at the destination: the source
	// splits TotalCredit over the patterns it launches, every hop splits a
	// probe's credit over the children it actually emits (integer division,
	// remainder to the last child), and a leaf's report carries its credit
	// to the collector, which closes the moment the collected sum equals
	// TotalCredit — every probe still alive has then reported. Credit is
	// only ever divided or lost, never re-created: a probe that dies
	// (dropProbe, wire loss, crashed peer) takes its credit with it, the
	// sum stays short, and the collection window timer decides as before.
	// (Budget cannot serve here: its floor-of-1 rules mint units.)
	//
	// The one thing that mints credit is a duplicated mid-path probe copy
	// on a wire without per-hop hardening (dup= faults, ProbeAckTimeout 0):
	// the receiver processes both copies and each lineage carries the full
	// credit. The collected sum then either overshoots TotalCredit without
	// ever equalling it, and the window timer decides, or lands on it with
	// one copy's worth of reports, and the collector closes on those while
	// the rest arrive as stragglers (about half each at dup=0.25). Either
	// way selection only sees probes that really returned; obs.Checker
	// excuses such a request from its complete-at-close invariant.
	// Hardening de-duplicates the copy at the receiver, so it never mints,
	// and a duplicated report copy is dropped by UID at the collector.
	//
	// A split that ran out of credit (more children than units) would hand
	// out zeros and let the collector close before those children report;
	// with TotalCredit = 2^60 that needs a fan-out product no budget-bounded
	// request approaches.
	Credit uint64

	CurFn     int    // function index this probe is being sent to examine
	CurCompID string // chosen component for CurFn on the receiving peer

	Visited []Hop
	Links   []service.LinkSnapshot
	QoS     qos.Vector
}

// Hop is one probed (function, component, availability) record.
type Hop struct {
	Fn   int
	Snap service.Snapshot
}

// TotalCredit is the termination credit a request's probes share (see
// Probe.Credit): large enough that repeated integer splits stay non-zero.
const TotalCredit uint64 = 1 << 60

// creditShare is the credit the i-th of n recipients gets when credit is
// split exactly: an equal integer share, the remainder on the last.
func creditShare(credit uint64, n, i int) uint64 {
	share := credit / uint64(n)
	if i == n-1 {
		share += credit % uint64(n)
	}
	return share
}

const (
	probeBaseSize   = 136 // fixed header, including the 8 credit bytes
	probePerHopSize = 64
)

func probeSize(p Probe) int { return probeBaseSize + probePerHopSize*len(p.Visited) }

// lastComp returns the most recently visited component (zero value at the
// source).
func (p *Probe) lastComp() service.Component {
	if len(p.Visited) == 0 {
		return service.Component{}
	}
	return p.Visited[len(p.Visited)-1].Snap.Comp
}

func (p *Probe) visitedComp(id string) bool {
	for _, h := range p.Visited {
		if h.Snap.Comp.ID == id {
			return true
		}
	}
	return false
}

func (p *Probe) prevFn() int {
	if len(p.Visited) == 0 {
		return -1
	}
	return p.Visited[len(p.Visited)-1].Fn
}

// onProbe is the per-hop probe processing of §4.2.
func (e *Engine) onProbe(_ p2p.Node, msg p2p.Message) {
	if e.cfg.ProbeAckTimeout > 0 {
		// Acknowledge every copy — the previous ack may itself have been
		// lost — then process each probe instance at most once.
		if e.ackHop(msg, &e.seenProbes) {
			return
		}
	}
	pr := msg.Payload.(Probe)
	req := pr.Req

	// The component the probe came to examine must still be hosted here
	// (discovery meta-data can be stale in a churning overlay).
	comp, ok := e.localComponent(pr.CurCompID)
	if !ok {
		e.dropProbe(&pr, "stale-component")
		return
	}

	util := e.ledger.Utilization()
	if e.Met != nil {
		e.Met.PeerLoad.Observe(util)
		e.Met.PeerLoadMax.SetMax(int64(util * 1000))
	}
	// Overload shedding: a peer past the threshold declines the probe
	// outright instead of queueing work it will serve too slowly. The probe
	// dies here with an accountable reason, so conservation still holds and
	// the source's remaining probes (on other duplicates) carry the request.
	// The threshold compares committed utilization (hard + soft) so that
	// concurrent compositions racing through the probe→confirm window see
	// each other's reservations.
	if e.cfg.ShedThreshold > 0 && e.ledger.CommittedUtilization() >= e.cfg.ShedThreshold {
		if e.Ctr != nil {
			e.Ctr.ProbesShed.Add(1)
		}
		e.dropProbe(&pr, "shed")
		return
	}

	// Step 2.1a: account the incoming service link and this component's
	// performance quality, then check the user's accumulated QoS bounds.
	lat, band, ok := e.oracle.Path(msg.From, e.host.ID())
	if !ok || band < req.Bandwidth {
		e.dropProbe(&pr, "ingress-link") // link cannot carry the stream
		return
	}
	var linkQoS qos.Vector
	linkQoS[qos.Delay] = lat
	pr.QoS = pr.QoS.Add(linkQoS).Add(comp.Qp)
	if !pr.QoS.Satisfies(req.QoSReq) {
		e.dropProbe(&pr, "qos") // requirements already violated
		return
	}

	// Step 2.1b: resource check and soft allocation, guarding against
	// conflicting admission by concurrent probes.
	if !e.holdSoft(pr.ReqID, comp.ID, req.Res) {
		e.dropProbe(&pr, "resources")
		return
	}

	// Step 2.4 (for this hop): record local QoS and resource states.
	pr.Links = append(pr.Links, service.LinkSnapshot{
		FromFn: pr.prevFn(), ToFn: pr.CurFn, BandAvail: band, Latency: lat,
	})
	pr.Visited = append(pr.Visited, Hop{
		Fn:   pr.CurFn,
		Snap: service.Snapshot{Comp: comp, Avail: e.ledger.AvailableHard(), Util: util},
	})

	succs := pr.Pattern.Successors(pr.CurFn)
	if len(succs) == 0 {
		// Branch complete: account the egress link and report to the
		// destination for optimal composition selection.
		elat, eband, ok := e.oracle.Path(e.host.ID(), req.Dest)
		if !ok || eband < req.Bandwidth {
			e.dropProbe(&pr, "egress-link")
			return
		}
		var egress qos.Vector
		egress[qos.Delay] = elat
		pr.QoS = pr.QoS.Add(egress)
		if !pr.QoS.Satisfies(req.QoSReq) {
			e.dropProbe(&pr, "qos")
			return
		}
		pr.Links = append(pr.Links, service.LinkSnapshot{
			FromFn: pr.CurFn, ToFn: -1, BandAvail: eband, Latency: elat,
		})
		if e.Ctr != nil {
			e.Ctr.ProbesReturned.Add(1)
		}
		if e.Trace != nil {
			e.Trace.Emit(obs.ProbeReturned(e.host.Now(), e.host.ID(), pr.ReqID,
				req.Dest, len(pr.Visited), probeSize(pr), pr.UID))
		}
		if e.Met != nil {
			e.Met.ProbeHops.Observe(float64(len(pr.Visited)))
		}
		e.sendReliable(p2p.Message{Type: MsgReport, To: req.Dest,
			Size: probeSize(pr), Payload: pr, UID: pr.UID}, pr.ReqID, pr.UID)
		return
	}

	// Steps 2.2–2.3: derive next-hop functions and select next-hop
	// components, after resolving their duplicate lists through this peer's
	// discovery cache.
	names := make([]string, len(succs))
	for i, s := range succs {
		names[i] = pr.Pattern.Function(s)
	}
	e.discoverAllCached(names, pr.ReqID, func(table registry.Table, ok bool) {
		if !ok {
			e.dropProbe(&pr, "discovery")
			return
		}
		if !e.spawnNext(pr, succs, comp, table) {
			// No eligible next hop anywhere: the probe dies here. Without
			// this record the probe would vanish from the accounting and
			// break the trace checker's conservation invariant.
			e.dropProbe(&pr, "no-candidate")
		}
	})
}

// dropProbe records a probe dying at this hop with a reason, for the
// overhead accounting and the trace.
func (e *Engine) dropProbe(pr *Probe, reason string) {
	if e.Ctr != nil {
		e.Ctr.ProbesDropped.Add(1)
	}
	if e.Trace != nil {
		e.Trace.Emit(obs.ProbeDropped(e.host.Now(), e.host.ID(), pr.ReqID,
			pr.Pattern.Function(pr.CurFn), pr.CurCompID, reason, len(pr.Visited), pr.UID))
	}
}

// holdSoft makes (or re-confirms) the temporary resource reservation for one
// (request, component) pair. The reservation self-cancels after SoftTimeout
// unless an ACK commits it first.
func (e *Engine) holdSoft(reqID uint64, compID string, res qos.Resources) bool {
	if e.cfg.DisableSoftReservation {
		return res.Fits(e.ledger.Available())
	}
	key := softKey{reqID: reqID, compID: compID}
	if _, held := e.soft[key]; held {
		return true // a sibling probe of the same request already holds it
	}
	if !e.ledger.Reserve(res) {
		return false
	}
	h := &softHold{res: res}
	h.cancel = e.host.After(e.cfg.SoftTimeout, func() {
		if cur, ok := e.soft[key]; ok && cur == h {
			delete(e.soft, key)
			e.ledger.Release(res)
		}
	})
	e.soft[key] = h
	return true
}

// quota is the probing quota of next-hop function fn: the request's explicit
// per-function quota, else replica-proportional.
func (pr *Probe) quota(fn int, table registry.Table) int {
	if pr.Req.Quota != nil {
		if q := pr.Req.Quota[fn]; q > 0 {
			return q
		}
		return 1
	}
	if z := len(table[pr.Pattern.Function(fn)]); z > 1 {
		return z
	}
	return 1
}

// forEachNext distributes pr's budget over its next-hop functions by probing
// quota (step 2.2) and visits each with its budget share bk and quota q.
func (pr *Probe) forEachNext(nextFns []int, table registry.Table, visit func(fn, bk, q int)) {
	totalQuota := 0
	for _, fn := range nextFns {
		totalQuota += pr.quota(fn, table)
	}
	remaining := pr.Budget
	for i, fn := range nextFns {
		q := pr.quota(fn, table)
		// Proportional split with a floor of 1 so every DAG branch stays
		// probed; the last function absorbs rounding remainder.
		var bk int
		if i == len(nextFns)-1 {
			bk = remaining
		} else {
			bk = pr.Budget * q / totalQuota
			if bk < 1 {
				bk = 1
			}
			if bk > remaining {
				bk = remaining
			}
		}
		remaining -= bk
		if bk < 1 {
			bk = 1
		}
		visit(fn, bk, q)
	}
}

// fanout counts the probes spawnNext would emit for pr, without emitting.
func (e *Engine) fanout(pr *Probe, nextFns []int, prevComp service.Component, table registry.Table) int {
	n := 0
	pr.forEachNext(nextFns, table, func(fn, bk, q int) {
		elig := 0
		for _, c := range table[pr.Pattern.Function(fn)] {
			if e.mayVisit(c, prevComp, pr) {
				elig++
			}
		}
		n += min3(bk, q, elig)
	})
	return n
}

// spawnNext implements steps 2.2–2.4: distribute the budget over next-hop
// functions by probing quota, pick the most promising duplicates for each,
// and emit new probes, splitting pr's termination credit exactly over them.
// It returns true if at least one probe was sent.
func (e *Engine) spawnNext(pr Probe, nextFns []int, prevComp service.Component, table registry.Table) bool {
	// Counting pass first: the credit split needs the number of children
	// before the first one leaves.
	children := e.fanout(&pr, nextFns, prevComp, table)
	if children == 0 {
		return false
	}
	req := pr.Req
	emitted := 0
	pr.forEachNext(nextFns, table, func(fn, bk, q int) {
		cands := e.eligible(table[pr.Pattern.Function(fn)], prevComp, &pr)
		if len(cands) == 0 {
			return
		}
		ik := min3(bk, q, len(cands))
		chosen := e.pickNextHop(cands, ik, req)
		newBudget := bk / ik
		if newBudget < 1 {
			newBudget = 1
		}
		for _, c := range chosen {
			np := pr
			np.Budget = newBudget
			np.Credit = creditShare(pr.Credit, children, emitted)
			emitted++
			np.CurFn = fn
			np.CurCompID = c.ID
			np.UID = e.nextProbeUID()
			// Visited/Links slices are shared by value-copy; appends in the
			// receiver re-slice safely only if capacity isn't shared. Force
			// copies to keep sibling probes independent.
			np.Visited = append([]Hop(nil), pr.Visited...)
			np.Links = append([]service.LinkSnapshot(nil), pr.Links...)
			if e.Ctr != nil {
				e.Ctr.ProbesSent.Add(1)
				e.Ctr.BudgetSpent.Add(int64(newBudget))
			}
			if e.Trace != nil {
				e.Trace.Emit(obs.ProbeSent(e.host.Now(), e.host.ID(), pr.ReqID,
					c.Peer, pr.Pattern.Function(fn), c.ID, newBudget, len(pr.Visited),
					np.UID, pr.UID))
			}
			if e.Met != nil {
				e.Met.ProbeBudget.Observe(float64(newBudget))
			}
			e.sendReliable(p2p.Message{Type: MsgProbe, To: c.Peer,
				Size: probeSize(np), Payload: np, UID: np.UID}, pr.ReqID, np.UID)
		}
	})
	return true
}

// nextProbeUID mints a run-unique, per-seed-deterministic probe identity:
// the emitting node in the high bits, this engine's emission sequence in the
// low bits.
func (e *Engine) nextProbeUID() uint64 {
	e.probeSeq++
	return uint64(e.host.ID())<<32 | e.probeSeq
}

// eligible filters a duplicate list down to components this probe may visit
// next: format-compatible with the previous hop and not already visited.
func (e *Engine) eligible(cands []service.Component, prevComp service.Component, pr *Probe) []service.Component {
	out := make([]service.Component, 0, len(cands))
	for _, c := range cands {
		if e.mayVisit(c, prevComp, pr) {
			out = append(out, c)
		}
	}
	return out
}

// mayVisit is the per-candidate eligibility rule.
func (e *Engine) mayVisit(c, prevComp service.Component, pr *Probe) bool {
	if prevComp.ID != "" && !service.Compatible(prevComp, c) {
		return false
	}
	if pr.visitedComp(c.ID) {
		return false
	}
	if e.Trust != nil && e.Trust.Score(c.Peer) < e.MinTrust {
		return false // secure composition: skip distrusted hosts
	}
	if e.Load != nil && e.cfg.ShedThreshold > 0 && e.Load.Committed(c.Peer) >= e.cfg.ShedThreshold {
		return false // overload shedding: the peer is declining new work
	}
	return true
}

// pickNextHop selects the k most promising candidates using the composite
// local metric of step 2.3: network delay to the candidate, bandwidth
// headroom on the path, and the candidate peer's failure probability.
func (e *Engine) pickNextHop(cands []service.Component, k int, req *service.Request) []service.Component {
	if k >= len(cands) {
		return cands
	}
	if e.cfg.RandomNextHop {
		idx := e.host.Rand().Perm(len(cands))[:k]
		out := make([]service.Component, k)
		for i, j := range idx {
			out[i] = cands[j]
		}
		return out
	}
	type scored struct {
		c     service.Component
		score float64
	}
	ss := make([]scored, len(cands))
	for i, c := range cands {
		lat, band, ok := e.oracle.Path(e.host.ID(), c.Peer)
		score := c.FailProb * 20
		if !ok {
			score += 1e9
		} else {
			score += lat / 50
			if band <= 0 {
				score += 1e9
			} else if req.Bandwidth > 0 {
				score += req.Bandwidth / band
			}
		}
		if e.Trust != nil {
			score += (1 - e.Trust.Score(c.Peer)) * 5
		}
		if e.cfg.LoadAware && e.Load != nil {
			// Load-aware probing: a saturated peer serves this session (and
			// this very probe) at M/M/1-inflated latency. Charge each
			// candidate its predicted queueing delay in the same units as
			// path latency, so the trade is exactly "detour vs. queue": the
			// convex model barely perturbs routing at moderate load but
			// deflects probes hard off near-saturated peers.
			u := e.Load.Util(c.Peer)
			if e.cfg.LoadModel.Base > 0 {
				score += float64(e.cfg.LoadModel.Delay(u)) / float64(50*time.Millisecond)
			} else {
				score += u * 3
			}
		}
		ss[i] = scored{c: c, score: score}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score < ss[j].score
		}
		return ss[i].c.ID < ss[j].c.ID
	})
	out := make([]service.Component, k)
	for i := 0; i < k; i++ {
		out[i] = ss[i].c
	}
	return out
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
