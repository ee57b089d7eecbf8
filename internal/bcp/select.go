package bcp

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// collector gathers the probes of one request at the destination (§4.1
// step 3) until their termination credit is complete (see Probe.Credit) or,
// when a probe died en route, until the collection window timer fires.
type collector struct {
	req     *service.Request
	records []Probe
	done    bool
	// credit sums the collected probes' termination credit; bound is when
	// the window timer fires and cancel disarms it.
	credit uint64
	bound  time.Duration
	cancel p2p.CancelFunc
	// lastAt is when the most recent probe was collected — the boundary
	// between the probe fan-out and residual collection-wait phases in the
	// setup-latency breakdown reported back to the source.
	lastAt time.Duration
}

func (e *Engine) onReport(_ p2p.Node, msg p2p.Message) {
	if e.cfg.ProbeAckTimeout > 0 {
		// Same ack-then-dedup discipline as onProbe, on a separate seen-set:
		// when the final hop is the destination itself, the probe and its
		// report carry the same UID and must not suppress each other.
		if e.ackHop(msg, &e.seenReports) {
			return
		}
	}
	pr := msg.Payload.(Probe)
	col, ok := e.collectors[pr.ReqID]
	if !ok {
		col = &collector{req: pr.Req}
		e.collectors[pr.ReqID] = col
		reqID := pr.ReqID
		window := e.cfg.CollectTimeout +
			time.Duration(pr.Req.FGraph.NumFunctions())*e.cfg.CollectPerHop
		col.bound = e.host.Now() + window
		col.cancel = e.host.After(window, func() { e.finishCollect(reqID) })
	}
	if col.done {
		return // straggler after selection already ran
	}
	for i := range col.records {
		if col.records[i].UID == pr.UID {
			return // duplicated report copy: its credit is already counted
		}
	}
	if e.Trace != nil {
		e.Trace.Emit(obs.ProbeCollected(e.host.Now(), e.host.ID(), pr.ReqID,
			msg.From, len(pr.Visited), pr.UID))
	}
	col.lastAt = e.host.Now()
	col.records = append(col.records, pr)
	col.credit += pr.Credit
	if col.credit == TotalCredit {
		// Every probe still alive has reported: nothing is left to wait for.
		col.cancel()
		e.finishCollect(pr.ReqID)
	}
}

// finishCollect runs optimal composition selection (§4.3): merge branch
// records into complete candidate service graphs, keep the qualified ones,
// and confirm the minimum-ψ graph over the reverse path.
func (e *Engine) finishCollect(reqID uint64) {
	col, ok := e.collectors[reqID]
	if !ok || col.done {
		return
	}
	col.done = true
	e.host.After(10*e.cfg.CollectTimeout, func() { delete(e.collectors, reqID) })

	req := col.req
	candidates := e.mergeRecords(req, col.records)

	qualified := candidates[:0]
	for _, c := range candidates {
		if c.Qualified(req) {
			qualified = append(qualified, c)
		}
	}
	if e.Trace != nil {
		e.Trace.Emit(obs.SelectDone(e.host.Now(), e.host.ID(), reqID,
			len(candidates), len(qualified), max(col.bound-e.host.Now(), 0)))
	}
	if len(qualified) == 0 {
		e.host.Send(p2p.Message{
			Type: MsgResult, To: req.Source, Size: 64,
			Payload: Result{ReqID: reqID, Ok: false},
		})
		return
	}
	score := func(g *service.Graph) float64 {
		var s float64
		if e.SelectByDelay {
			s = g.QoS[qos.Delay]
		} else {
			s = g.Cost(e.Weights, req)
		}
		if e.cfg.LoadAware {
			// Overload control: probes recorded each hop's utilization, and
			// the hottest component bounds how slowly the session will run
			// under the load-inflated processing model. Scaling the score by
			// (1 + max utilization) steers selection toward cool graphs
			// without distorting the load-blind default (off: factor 1).
			s *= 1 + maxUtil(g)
		}
		return s
	}
	// Conditional-branch semantics: graphs instantiating the primary
	// function graph rank before variant fallbacks; within a tier, lowest
	// score wins. (ψ sums per component, so comparing costs across shapes
	// of different sizes would always favor the shortest variant.)
	primaryPatterns := len(req.FGraph.Patterns(e.primaryPatternCap()))
	tier := func(g *service.Graph) int {
		if g.PatternIdx < primaryPatterns {
			return 0
		}
		return 1
	}
	sort.SliceStable(qualified, func(i, j int) bool {
		ti, tj := tier(qualified[i]), tier(qualified[j])
		if ti != tj {
			return ti < tj
		}
		return score(qualified[i]) < score(qualified[j])
	})
	best := qualified[0]
	nb := min(len(qualified)-1, maxBackups)
	backups := append([]*service.Graph(nil), qualified[1:1+nb]...)

	// Tell the sender which graph is being confirmed (in parallel with the
	// ACK), so a broken ACK chain can be rolled back from the sender side.
	// The phase boundaries ride along for the setup-latency breakdown.
	e.host.Send(p2p.Message{
		Type: MsgChosen, To: req.Source, Size: 96,
		Payload: chosenMsg{ReqID: reqID, Graph: best, CollectEnd: col.lastAt, SelectAt: e.host.Now()},
	})
	// Reverse-path session setup (§4.1 step 4): the ACK visits the chosen
	// components sink-first, hardening each soft reservation.
	order := reverseTopo(best)
	am := ackMsg{ReqID: reqID, Best: best, Backups: backups, Order: order, Pos: 0}
	e.host.Send(p2p.Message{
		Type: MsgAck, To: best.Comps[order[0]].Comp.Peer, Size: 96,
		Payload: am,
	})
}

// maxUtil returns the highest probe-recorded utilization across the graph's
// components, the load figure selection penalizes when LoadAware is on.
func maxUtil(g *service.Graph) float64 {
	var u float64
	for _, s := range g.Comps {
		if s.Util > u {
			u = s.Util
		}
	}
	return u
}

func reverseTopo(g *service.Graph) []int {
	topo := g.Pattern.TopoOrder()
	out := make([]int, len(topo))
	for i, fn := range topo {
		out[len(topo)-1-i] = fn
	}
	return out
}

// mergeRecords groups branch probes by composition pattern and merges
// agreeing branch records into complete candidate service graphs, bounded
// by maxCandidates.
func (e *Engine) mergeRecords(req *service.Request, records []Probe) []*service.Graph {
	byPattern := make(map[int][]Probe)
	patterns := make(map[int]*Probe)
	for i, r := range records {
		byPattern[r.PatternIdx] = append(byPattern[r.PatternIdx], r)
		patterns[r.PatternIdx] = &records[i]
	}
	patIdx := make([]int, 0, len(byPattern))
	for pi := range byPattern {
		patIdx = append(patIdx, pi)
	}
	sort.Ints(patIdx)

	var out []*service.Graph
	seen := make(map[string]bool)
	for _, pi := range patIdx {
		pat := patterns[pi].Pattern
		branches := pat.Branches(maxBranches)
		slots := make([][]Probe, len(branches))
		for _, r := range byPattern[pi] {
			if bi := branchIndex(branches, r); bi >= 0 {
				slots[bi] = append(slots[bi], r)
			}
		}
		complete := true
		for _, s := range slots {
			if len(s) == 0 {
				complete = false
				break
			}
		}
		if !complete {
			continue // some branch got no surviving probe; pattern unusable
		}
		e.enumerateCombos(req, pi, slots, func(g *service.Graph) bool {
			if key := g.Key(); !seen[key] {
				seen[key] = true
				out = append(out, g)
			}
			return len(out) < maxCandidates
		})
		if len(out) >= maxCandidates {
			break
		}
	}
	return out
}

// branchIndex matches a record's visited function sequence to one of the
// pattern's branches.
func branchIndex(branches [][]int, r Probe) int {
	for bi, br := range branches {
		if len(br) != len(r.Visited) {
			continue
		}
		match := true
		for i, fn := range br {
			if r.Visited[i].Fn != fn {
				match = false
				break
			}
		}
		if match {
			return bi
		}
	}
	return -1
}

// enumerateCombos walks the cartesian product of per-branch records,
// merging combinations whose shared functions agree on the same component.
// emit returns false to stop enumeration.
func (e *Engine) enumerateCombos(req *service.Request, patternIdx int, slots [][]Probe, emit func(*service.Graph) bool) {
	idx := make([]int, len(slots))
	for {
		if g := mergeCombo(req, patternIdx, slots, idx); g != nil {
			if !emit(g) {
				return
			}
		}
		// Odometer increment.
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(slots[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return
		}
	}
}

// mergeCombo merges one record per branch into a complete service graph, or
// returns nil if the records disagree on a shared function's component.
func mergeCombo(req *service.Request, patternIdx int, slots [][]Probe, idx []int) *service.Graph {
	g := &service.Graph{
		Pattern:    slots[0][idx[0]].Pattern,
		PatternIdx: patternIdx,
		Comps:      make(map[int]service.Snapshot),
		Req:        req,
	}
	type linkKey struct{ from, to int }
	links := make(map[linkKey]service.LinkSnapshot)
	for bi := range slots {
		r := slots[bi][idx[bi]]
		for _, h := range r.Visited {
			if prev, ok := g.Comps[h.Fn]; ok {
				if prev.Comp.ID != h.Snap.Comp.ID {
					return nil // branches disagree on a shared function
				}
				continue
			}
			g.Comps[h.Fn] = h.Snap
		}
		for _, l := range r.Links {
			k := linkKey{l.FromFn, l.ToFn}
			if _, ok := links[k]; !ok {
				links[k] = l
			}
		}
		g.QoS = g.QoS.Max(r.QoS)
	}
	g.Links = make([]service.LinkSnapshot, 0, len(links))
	for _, l := range links {
		g.Links = append(g.Links, l)
	}
	sort.Slice(g.Links, func(i, j int) bool {
		if g.Links[i].FromFn != g.Links[j].FromFn {
			return g.Links[i].FromFn < g.Links[j].FromFn
		}
		return g.Links[i].ToFn < g.Links[j].ToFn
	})
	return g
}

// ackMsg confirms the selected service graph along the reverse path,
// committing each peer's soft reservation into a session allocation and
// admitting bandwidth on outgoing service links.
type ackMsg struct {
	ReqID   uint64
	Best    *service.Graph
	Backups []*service.Graph
	Order   []int // reverse topological order of function indices
	Pos     int
}

func (e *Engine) onAck(_ p2p.Node, msg p2p.Message) {
	am := msg.Payload.(ackMsg)
	if e.cfg.ProbeAckTimeout > 0 && e.ackSeen.seen(ackKey{req: am.ReqID, pos: am.Pos}) {
		// A duplicated ack copy (dup fault) must not re-walk the reverse
		// path: the cascade would end in a duplicate MsgResult.
		return
	}
	fn := am.Order[am.Pos]
	snap := am.Best.Comps[fn]
	req := am.Best.Req

	fail := func(reason string) {
		if e.Trace != nil {
			e.Trace.Emit(obs.SessionReject(e.host.Now(), e.host.ID(), am.ReqID,
				snap.Comp.ID, reason))
		}
		e.host.Send(p2p.Message{
			Type: MsgFail, To: req.Source, Size: 64,
			Payload: failMsg{ReqID: am.ReqID, Graph: am.Best},
		})
	}

	if _, hosted := e.localComponent(snap.Comp.ID); !hosted {
		fail("vanished") // component vanished between probing and setup
		return
	}
	if !e.CommitSession(am.ReqID, snap.Comp.ID, req.Res) {
		fail("resources")
		return
	}
	// Outgoing service links: to each successor's component, or to the
	// receiving application for sink functions.
	succs := am.Best.Pattern.Successors(fn)
	if len(succs) == 0 {
		if !e.AllocSessionBandwidth(am.ReqID, req.Dest, req.Bandwidth) {
			fail("bandwidth")
			return
		}
	}
	for _, s := range succs {
		next, ok := am.Best.Comps[s]
		if !ok {
			fail("vanished")
			return
		}
		if !e.AllocSessionBandwidth(am.ReqID, next.Comp.Peer, req.Bandwidth) {
			fail("bandwidth")
			return
		}
	}
	if e.Trace != nil {
		e.Trace.Emit(obs.SessionAdmit(e.host.Now(), e.host.ID(), am.ReqID, snap.Comp.ID))
	}

	am.Pos++
	if am.Pos < len(am.Order) {
		e.host.Send(p2p.Message{
			Type: MsgAck, To: am.Best.Comps[am.Order[am.Pos]].Comp.Peer, Size: 96,
			Payload: am,
		})
		return
	}
	// All components confirmed: tell the sender the session is up.
	e.host.Send(p2p.Message{
		Type: MsgResult, To: req.Source, Size: 128,
		Payload: Result{ReqID: am.ReqID, Ok: true, Best: am.Best, Backups: am.Backups},
	})
}

// BestDelay is a convenience for experiments: the end-to-end delay of a
// graph, +Inf for nil.
func BestDelay(g *service.Graph) float64 {
	if g == nil {
		return math.Inf(1)
	}
	return g.QoS[qos.Delay]
}
