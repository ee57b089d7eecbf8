package bcp

import (
	"bytes"
	"cmp"
	"maps"
	"slices"
	"time"

	"repro/internal/fgraph"
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

	req, records := col.req, col.records
	// The closed collector stays only to refuse stragglers, which it does on
	// done alone: the probes, their hop slices included, are garbage as soon
	// as the graphs below are built.
	col.records = nil
	sel := &e.sel
	distinct := e.rank(req, records)
	if e.Trace != nil {
		e.Trace.Emit(obs.SelectDone(e.host.Now(), e.host.ID(), reqID,
			distinct, len(sel.cands), max(col.bound-e.host.Now(), 0)))
	}
	if len(sel.cands) == 0 {
		e.host.Send(p2p.Message{
			Type: MsgResult, To: req.Source, Size: 64,
			Payload: Result{ReqID: reqID, Ok: false},
		})
		return
	}
	best := sel.build(req, records, &sel.cands[0])
	nb := min(len(sel.cands)-1, maxBackups)
	backups := make([]*service.Graph, nb)
	for i := range backups {
		backups[i] = sel.build(req, records, &sel.cands[1+i])
	}

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

// selection is the scratch optimal composition selection works in. It
// belongs to one engine, whose handlers run one at a time, and is reused by
// every request that engine is the destination of: a combination of branch
// records is merged into the one trial graph, keyed, qualified and scored
// there, and only the few that are returned become graphs of their own.
type selection struct {
	trial service.Graph
	// cands are the distinct qualified combinations, best first after rank.
	cands []candidate
	// keys are the signatures of the distinct combinations seen so far, end
	// to end in keyBytes; key is the signature under construction, behind
	// its pattern's rendering.
	keyBytes []byte
	keyEnds  []int
	key      []byte
	// Per pattern: the pattern indices present, each record's branch, and
	// the record indices grouped by branch, recs[off[b]:off[b+1]].
	pats     []int
	branchOf []int
	recs     []int32
	off      [maxBranches + 1]int
}

// candidate is one qualified combination: which record it takes per branch,
// and the rank selection sorts by.
type candidate struct {
	score   float64
	variant bool // instantiates a request variant: ranks after every primary
	n       int  // branches of its pattern
	recs    [maxBranches]int32
}

// addKey records key as seen and reports whether it was new. A request has
// at most maxCandidates of them, of a few dozen bytes each, so a scan beats
// a map that would own a string per key.
func (s *selection) addKey(key []byte) bool {
	start := 0
	for _, end := range s.keyEnds {
		if bytes.Equal(s.keyBytes[start:end], key) {
			return false
		}
		start = end
	}
	s.keyBytes = append(s.keyBytes, key...)
	s.keyEnds = append(s.keyEnds, len(s.keyBytes))
	return true
}

// merge fills the trial graph from one record per branch, or reports false
// if the records disagree on a shared function's component. Of a function or
// link recorded by several branches the first record's snapshot stands.
func (s *selection) merge(req *service.Request, records []Probe, recs []int32) bool {
	g := &s.trial
	first := &records[recs[0]]
	g.Pattern, g.PatternIdx, g.Req = first.Pattern, first.PatternIdx, req
	g.QoS = qos.Vector{}
	g.Links = g.Links[:0]
	if g.Comps == nil {
		g.Comps = make(map[int]service.Snapshot)
	}
	clear(g.Comps)
	for _, ri := range recs {
		r := &records[ri]
		for i := range r.Visited {
			h := &r.Visited[i]
			if prev, ok := g.Comps[h.Fn]; ok {
				if prev.Comp.ID != h.Snap.Comp.ID {
					return false // branches disagree on a shared function
				}
				continue
			}
			g.Comps[h.Fn] = h.Snap
		}
		for i := range r.Visited {
			s.addLink(r.Visited[i].In)
		}
		s.addLink(r.Egress)
		g.QoS = g.QoS.Max(r.QoS)
	}
	slices.SortFunc(g.Links, service.LinkSnapshot.Compare)
	return true
}

func (s *selection) addLink(l service.LinkSnapshot) {
	for _, have := range s.trial.Links {
		if have.FromFn == l.FromFn && have.ToFn == l.ToFn {
			return
		}
	}
	s.trial.Links = append(s.trial.Links, l)
}

// build merges c's records again and returns the result as a graph of its
// own.
func (s *selection) build(req *service.Request, records []Probe, c *candidate) *service.Graph {
	s.merge(req, records, c.recs[:c.n])
	g := s.trial
	g.Comps = maps.Clone(g.Comps)
	g.Links = slices.Clone(g.Links)
	return &g
}

// score is the figure selection minimizes within a tier.
func (e *Engine) score(g *service.Graph, req *service.Request) float64 {
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

// rank groups the branch probes by composition pattern and walks the
// combinations of one record per branch that agree on their shared
// functions, at most maxCandidates distinct ones. It returns how many
// distinct ones it saw and leaves the qualified ones in e.sel.cands, best
// first.
func (e *Engine) rank(req *service.Request, records []Probe) int {
	s := &e.sel
	s.cands, s.keyBytes, s.keyEnds = s.cands[:0], s.keyBytes[:0], s.keyEnds[:0]
	// Conditional-branch semantics: graphs instantiating the primary
	// function graph rank before variant fallbacks; within a tier, lowest
	// score wins. (ψ sums per component, so comparing costs across shapes
	// of different sizes would always favor the shortest variant.)
	primaryPatterns := len(req.FGraph.Patterns(e.primaryPatternCap()))

	s.pats = s.pats[:0]
	for i := range records {
		if !slices.Contains(s.pats, records[i].PatternIdx) {
			s.pats = append(s.pats, records[i].PatternIdx)
		}
	}
	slices.Sort(s.pats)
	for _, pi := range s.pats {
		if !e.rankPattern(req, records, pi, pi >= primaryPatterns) {
			break
		}
	}
	slices.SortStableFunc(s.cands, func(a, b candidate) int {
		if a.variant != b.variant {
			if b.variant {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.score, b.score)
	})
	return len(s.keyEnds)
}

// rankPattern is rank for the records of one pattern; it reports false once
// maxCandidates distinct combinations have been seen.
func (e *Engine) rankPattern(req *service.Request, records []Probe, pi int, variant bool) bool {
	s := &e.sel
	var pat *fgraph.Graph
	for i := range records {
		if records[i].PatternIdx == pi {
			pat = records[i].Pattern
		}
	}
	branches := pat.Branches(maxBranches)
	s.branchOf = s.branchOf[:0]
	for i := range records {
		bi := -1
		if records[i].PatternIdx == pi {
			bi = branchIndex(branches, &records[i])
		}
		s.branchOf = append(s.branchOf, bi)
	}
	s.recs = s.recs[:0]
	for bi := range branches {
		s.off[bi] = len(s.recs)
		for i, b := range s.branchOf {
			if b == bi {
				s.recs = append(s.recs, int32(i))
			}
		}
		if len(s.recs) == s.off[bi] {
			return true // some branch got no surviving probe; pattern unusable
		}
	}
	s.off[len(branches)] = len(s.recs)

	s.key = append(pat.AppendString(s.key[:0]), '|')
	prefix := len(s.key)
	c := candidate{variant: variant, n: len(branches)}
	var idx [maxBranches]int
	for {
		for b := 0; b < c.n; b++ {
			c.recs[b] = s.recs[s.off[b]+idx[b]]
		}
		if s.merge(req, records, c.recs[:c.n]) {
			s.key = s.trial.AppendAssignment(s.key[:prefix])
			if s.addKey(s.key) {
				if s.trial.Qualified(req) {
					c.score = e.score(&s.trial, req)
					s.cands = append(s.cands, c)
				}
				if len(s.keyEnds) >= maxCandidates {
					return false
				}
			}
		}
		// Odometer increment.
		k := c.n - 1
		for k >= 0 {
			idx[k]++
			if s.off[k]+idx[k] < s.off[k+1] {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return true
		}
	}
}

// branchIndex matches a record's visited function sequence to one of the
// pattern's branches.
func branchIndex(branches [][]int, r *Probe) int {
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
