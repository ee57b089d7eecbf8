package federation

import (
	"math"
	"sort"
	"time"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// advertiseMsg announces one domain's provided function set to the other
// coordinators.
type advertiseMsg struct {
	Domain int
	Fns    []string
}

// composeMsg is a client's composition request to its domain coordinator.
type composeMsg struct {
	Req *service.Request
}

// resultMsg tells the client its request failed: it did not split, or the
// coordinator decided abort. A commit is the participants' to report.
type resultMsg struct {
	ReqID uint64
}

// segment is one per-domain subgraph of a split request.
type segment struct {
	domain int
	gw     p2p.NodeID
	sub    *service.Request
}

type fedState struct {
	fedID   uint64
	client  p2p.NodeID
	segs    []segment
	domains int // distinct domains spanned

	votes     map[int]bool // segment -> vote
	sentAt    time.Duration
	voteTimer p2p.Timer
}

// Coordinator is one domain's federation control point. It advertises the
// domain's function set, splits requests originating in its domain into
// per-domain segments along the remote-availability table, and drives the
// two-phase commit over the segments' gateway agents. Its part of a request
// ends at the decision: participants acknowledge a commit to the client.
type Coordinator struct {
	host   p2p.Node
	domain int
	plan   *DomainPlan
	cfg    Config

	localFns []string
	remote   map[string][]int // fn -> sorted providing domains

	pending map[uint64]*fedState
	aborted map[uint64]bool       // recently aborted fedIDs, for straggler votes
	votes   p2p.Timers[*fedState] // the rounds' vote timeouts
	forget  p2p.Timers[uint64]    // aborted entries, Hold after the abort
}

// NewCoordinator registers the coordinator protocol on domain d's
// coordinator peer. localFns is the domain's own provided function set.
func NewCoordinator(host p2p.Node, d int, plan *DomainPlan, cfg Config, localFns []string) *Coordinator {
	c := &Coordinator{
		host: host, domain: d, plan: plan, cfg: cfg,
		localFns: localFns,
		remote:   make(map[string][]int),
		pending:  make(map[uint64]*fedState),
		aborted:  make(map[uint64]bool),
	}
	c.votes.Init(host, func(st *fedState) { c.decide(st, false) })
	c.forget.Init(host, func(fid uint64) { delete(c.aborted, fid) })
	for _, fn := range localFns {
		c.remote[fn] = []int{d}
	}
	host.Handle(MsgAdvertise, c.onAdvertise)
	host.Handle(MsgCompose, c.onCompose)
	host.Handle(MsgVote, c.onVote)
	return c
}

// Advertise announces this domain's function set to every other coordinator.
func (c *Coordinator) Advertise() {
	for d := 0; d < c.plan.NumDomains; d++ {
		if d == c.domain {
			continue
		}
		c.host.Send(p2p.Message{Type: MsgAdvertise, To: c.plan.Coordinator(d),
			Size:    16 * len(c.localFns),
			Payload: advertiseMsg{Domain: c.domain, Fns: c.localFns}})
	}
}

func (c *Coordinator) onAdvertise(_ p2p.Node, msg p2p.Message) {
	m := msg.Payload.(advertiseMsg)
	for _, fn := range m.Fns {
		doms := c.remote[fn]
		if !containsInt(doms, m.Domain) {
			doms = append(doms, m.Domain)
			sort.Ints(doms)
			c.remote[fn] = doms
		}
	}
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func (c *Coordinator) onCompose(_ p2p.Node, msg p2p.Message) {
	m := msg.Payload.(composeMsg)
	req := m.Req
	if _, dup := c.pending[req.ID]; dup {
		// Duplicated compose (dup fault): the first copy's round is running.
		return
	}
	st := &fedState{fedID: req.ID, client: msg.From, votes: make(map[int]bool)}
	segs, ok := c.split(req)
	if !ok {
		c.fail(st)
		return
	}
	st.segs = segs
	seen := make(map[int]bool)
	for _, s := range segs {
		seen[s.domain] = true
	}
	st.domains = len(seen)
	c.pending[st.fedID] = st
	st.sentAt = c.host.Now()
	for i, s := range segs {
		c.host.Send(p2p.Message{Type: MsgPrepare, To: s.gw, Size: 256,
			Payload: prepareMsg{FedID: st.fedID, Seg: i, SubID: s.sub.ID,
				Sub: s.sub, Domain: s.domain}})
	}
	st.voteTimer = c.votes.After(voteTimeout, st)
}

// split partitions the request's function graph into per-domain segments.
// Linear chains split at domain boundaries: each function prefers the
// previous function's domain, then the origin domain, then the
// lowest-numbered providing domain, and consecutive same-domain runs become
// one segment. Graphs with branches, commutations, variants, or quotas are
// not splittable and compose as a single segment in any one domain that
// provides every function (origin domain preferred).
func (c *Coordinator) split(req *service.Request) ([]segment, bool) {
	fns := req.FGraph.Functions()
	if !c.chain(req) {
		dom, ok := c.singleDomain(fns)
		if !ok {
			return nil, false
		}
		sub := c.subRequest(req, 0, dom, req.FGraph, len(fns), req.Dest)
		sub.Variants = req.Variants
		sub.Quota = req.Quota
		return []segment{{domain: dom, gw: sub.Source, sub: sub}}, true
	}

	// Assign each chain function a domain, in topological order.
	order := req.FGraph.TopoOrder()
	doms := make([]int, len(order))
	prev := -1
	for i, fn := range order {
		name := req.FGraph.Function(fn)
		providers := c.remote[name]
		if len(providers) == 0 {
			return nil, false
		}
		switch {
		case prev >= 0 && containsInt(providers, prev):
			doms[i] = prev
		case containsInt(providers, c.domain):
			doms[i] = c.domain
		default:
			doms[i] = providers[0]
		}
		prev = doms[i]
	}

	// Group consecutive same-domain runs into segments.
	type run struct {
		domain int
		fns    []string
	}
	var runs []run
	for i, fn := range order {
		name := req.FGraph.Function(fn)
		if len(runs) > 0 && runs[len(runs)-1].domain == doms[i] {
			runs[len(runs)-1].fns = append(runs[len(runs)-1].fns, name)
			continue
		}
		runs = append(runs, run{domain: doms[i], fns: []string{name}})
	}
	if len(runs) > maxSegments {
		return nil, false
	}

	segs := make([]segment, len(runs))
	for i, r := range runs {
		segs[i] = segment{domain: r.domain}
	}
	for i := len(runs) - 1; i >= 0; i-- {
		dest := req.Dest
		if i < len(runs)-1 {
			dest = segs[i+1].sub.Source
		}
		sub := c.subRequest(req, i, runs[i].domain, fgraph.Linear(runs[i].fns...), len(order), dest)
		segs[i].gw = sub.Source
		segs[i].sub = sub
	}
	return segs, true
}

// chain reports whether the request is a splittable linear chain.
func (c *Coordinator) chain(req *service.Request) bool {
	if len(req.Variants) > 0 || req.Quota != nil || len(req.FGraph.Commutations()) > 0 {
		return false
	}
	for i := 0; i < req.FGraph.NumFunctions(); i++ {
		if len(req.FGraph.Successors(i)) > 1 || len(req.FGraph.Predecessors(i)) > 1 {
			return false
		}
	}
	return true
}

// singleDomain finds one domain providing every listed function, preferring
// the origin domain.
func (c *Coordinator) singleDomain(fns []string) (int, bool) {
	cand := make(map[int]int) // domain -> provided count
	for _, fn := range fns {
		for _, d := range c.remote[fn] {
			cand[d]++
		}
	}
	if cand[c.domain] == len(fns) {
		return c.domain, true
	}
	best, ok := -1, false
	for d, n := range cand {
		if n == len(fns) && (!ok || d < best) {
			best, ok = d, true
		}
	}
	return best, ok
}

// subRequest builds segment seg's sub-request: sourced at the segment
// domain's ingress gateway, destined for the next segment's gateway (or the
// original destination), with the finite QoS requirements scaled by the
// segment's share of the chain and the probe budget split evenly.
func (c *Coordinator) subRequest(req *service.Request, seg, dom int, fg *fgraph.Graph,
	totalFns int, dest p2p.NodeID) *service.Request {
	gws := c.plan.Gateways(dom)
	gw := gws[int(req.ID%uint64(len(gws)))]
	frac := float64(fg.NumFunctions()) / float64(totalFns)
	q := qos.Unbounded()
	for i := range q {
		if !math.IsInf(req.QoSReq[i], 1) {
			q[i] = req.QoSReq[i] * frac
		}
	}
	budget := req.Budget
	if totalFns > fg.NumFunctions() {
		budget = req.Budget * fg.NumFunctions() / totalFns
	}
	if budget < 2 {
		budget = 2
	}
	return &service.Request{
		ID:        SubID(req.ID, seg),
		FGraph:    fg,
		QoSReq:    q,
		Res:       req.Res,
		Bandwidth: req.Bandwidth,
		FailReq:   req.FailReq,
		Source:    gw,
		Dest:      dest,
		Lease:     c.cfg.lease(),
		Budget:    budget,
	}
}

func (c *Coordinator) onVote(_ p2p.Node, msg p2p.Message) {
	m := msg.Payload.(voteMsg)
	st, ok := c.pending[m.FedID]
	if !ok {
		if m.Ok && c.aborted[m.FedID] {
			// Straggler yes-vote after the abort decision: release the
			// participant's hold early rather than waiting out the window.
			c.host.Send(p2p.Message{Type: MsgDecide, To: msg.From, Size: 32,
				Payload: decideMsg{FedID: m.FedID, Seg: m.Seg,
					SubID: SubID(m.FedID, m.Seg), Commit: false}})
		}
		return
	}
	if _, dup := st.votes[m.Seg]; dup {
		return
	}
	st.votes[m.Seg] = m.Ok
	if !m.Ok {
		c.decide(st, false)
		return
	}
	if len(st.votes) == len(st.segs) {
		c.decide(st, true)
	}
}

// decide ends the coordinator's part of a request: it sends the decision and
// forgets the request. A commit carries what each participant's
// acknowledgement to the client needs.
func (c *Coordinator) decide(st *fedState, commit bool) {
	st.voteTimer.Stop()
	delete(c.pending, st.fedID)
	if commit {
		ack := commitAck{Client: st.client, Segs: len(st.segs), Domains: st.domains, PreparedAt: st.sentAt}
		for i, s := range st.segs {
			c.host.Send(p2p.Message{Type: MsgDecide, To: s.gw, Size: 32,
				Payload: decideMsg{FedID: st.fedID, Seg: i, SubID: s.sub.ID, Commit: true, Ack: ack}})
		}
		return
	}
	// Abort: release only the segments that voted yes; the rest hold nothing
	// (refused) or will presume abort when their hold window expires.
	for i, s := range st.segs {
		if st.votes[i] {
			c.host.Send(p2p.Message{Type: MsgDecide, To: s.gw, Size: 32,
				Payload: decideMsg{FedID: st.fedID, Seg: i, SubID: s.sub.ID, Commit: false}})
		}
	}
	c.aborted[st.fedID] = true
	c.forget.After(c.cfg.Hold, st.fedID)
	c.fail(st)
}

// fail tells the request's client it failed.
func (c *Coordinator) fail(st *fedState) {
	c.host.Send(p2p.Message{Type: MsgResult, To: st.client, Size: 48,
		Payload: resultMsg{ReqID: st.fedID}})
}
