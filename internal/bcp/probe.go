package bcp

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/dht"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
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
	// remainder to the last child), a leaf's report carries its credit to
	// the collector, and a probe dropProbe kills sends it there in a
	// creditMsg. The collector closes the moment the sum equals TotalCredit:
	// every probe has then reported or died. Credit is never re-created, and
	// is lost only with a lost wire copy or a crashed peer; the sum then
	// stays short and the collection window timer decides. (Budget cannot
	// serve here: its floor-of-1 rules mint units.) A duplicated copy
	// never counts twice: a wire that duplicates hardens its engines, whose
	// receivers process each probe, report and credit UID once, and the
	// collector counts a UID once on any wire.
	//
	// A split that ran out of credit (more children than units) would hand
	// out zeros and let the collector close before those children report;
	// with TotalCredit = 2^60 that needs a fan-out product no budget-bounded
	// request approaches.
	Credit uint64

	CurFn     int    // function index this probe is being sent to examine
	CurCompID string // chosen component for CurFn on the receiving peer

	// Visited is the branch walked so far. A probe's children all carry
	// their parent's slice: a hop never writes into the slice it received,
	// it records itself in a copy one element longer (onProbe), so siblings
	// and retransmitted copies keep reading the shared prefix unharmed.
	Visited []Hop
	// Hints names who answered the source's lookup of each function downstream
	// of CurFn; a hop whose cache misses hands its lookup straight to that peer.
	// A read-only tail of the source's list (hintsFor); a report has none.
	Hints []Hint
	// Lists is what the source resolved for the direct successors of CurFn,
	// handed to the first hop so it need not ask the DHT for what the source was
	// just told. Only a probe leaving the source has any, and of each list only
	// the tail past what the source handed that peer before (List.Base; hand).
	// The receiving hop rebuilds each from its own entry (rebuilt), is served by
	// them where its own list expired, keeps each, under the source's expiry,
	// where it holds nothing live or newer, and strips them.
	Lists []List
	// Egress is the service link from the branch's last component to the
	// destination, recorded by the leaf on the report.
	Egress service.LinkSnapshot
	QoS    qos.Vector
}

// Hop is one probed (function, component, availability) record, with the
// service link the probe reached the component over.
type Hop struct {
	Fn   int
	Snap service.Snapshot
	In   service.LinkSnapshot
}

// Hint is the peer (Root) that answered the source's lookup of pattern function Fn.
type Hint struct {
	Fn   int
	Root p2p.NodeID
}

// hintsFor lists who answered the lookup of each function of pattern g, in
// g's topological order, from the table the source resolved.
func hintsFor(g *fgraph.Graph, table []List) []Hint {
	order := g.TopoOrder()
	hints := make([]Hint, 0, len(order))
	for _, fn := range order {
		hints = append(hints, Hint{Fn: fn, Root: entryOf(table, g.Function(fn)).Root})
	}
	return hints
}

// hintsFrom returns the tail of the topologically ordered hints from the
// first function of succs on — what a probe bound for their predecessor
// carries: all that is downstream of it, plus, on a fork, a sibling's tail.
func hintsFrom(hints []Hint, succs []int) []Hint {
	for i, h := range hints {
		if slices.Contains(succs, h.Fn) {
			return hints[i:]
		}
	}
	return nil
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
	probeHintSize   = 8  // function index + peer address
	probeListSize   = 16 // function key, answering peer, item count, expiry
)

// ProbeSize is the modelled wire size of probe p, which its message carries.
func ProbeSize(p Probe) int {
	size := probeBaseSize + probePerHopSize*len(p.Visited) + probeHintSize*len(p.Hints)
	for _, l := range p.Lists {
		size += probeListSize + dht.ItemSize*len(l.Comps)
	}
	return size
}

// hand appends to dst the lists a probe bound for peer, the predecessor of
// pattern g's functions succs, takes along from table, the source's own
// resolution (nil at every later hop, which has only the list of the function
// it sends to): each past the items this engine's probes already handed peer
// (Base), or whole where the list is no longer what was handed — shorter, or
// answered by another peer. It records peer as holding all of each.
func (e *Engine) hand(dst []List, peer p2p.NodeID, g *fgraph.Graph, succs []int, table []List) []List {
	for _, s := range succs {
		l := entryOf(table, g.Function(s))
		if l.Root == p2p.NoNode {
			continue
		}
		k := handKey{peer: peer, fn: l.Fn}
		if h := e.handed[k]; h.root == l.Root && h.items <= len(l.Comps) {
			l.Base, l.Comps = h.items, l.Comps[h.items:]
		}
		e.handed[k] = handedList{root: l.Root, items: l.Base + len(l.Comps)}
		dst = append(dst, l)
	}
	return dst
}

// rebuilt returns the lists a probe carried as the source holds them, in
// engine scratch: each tail after the first Base items of this peer's own
// entry, which an earlier probe handed it — stores only append (DESIGN.md
// "Delta"). A list of which this peer holds fewer than Base items is left out,
// and the hop served as if it had not been carried. lists, which siblings and
// retransmitted copies share, is never written.
func (e *Engine) rebuilt(lists []List) []List {
	out := e.carry[:0]
	for _, l := range lists {
		if l.Base > 0 {
			have := e.cache[l.Fn].Comps
			if len(have) < l.Base {
				if e.Ctr != nil {
					e.Ctr.DiscCarriedShort.Add(1)
				}
				continue
			}
			// Clipped, so a tail is copied on append and an empty one costs nothing.
			l.Comps, l.Base = append(have[:l.Base:l.Base], l.Comps...), 0
		}
		out = append(out, l)
	}
	e.carry = out
	return out
}

// lastComp returns the most recently visited component, nil at the source.
func (p *Probe) lastComp() *service.Component {
	if len(p.Visited) == 0 {
		return nil
	}
	return &p.Visited[len(p.Visited)-1].Snap.Comp
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
	// Hardened: acknowledge every copy — the previous ack may itself have been
	// lost — then process each probe instance at most once.
	if e.Hardened() && e.ackHop(msg, &e.seenProbes) {
		return
	}
	// The payload is shared with the sender's other copies; see spawnNext.
	pr := *msg.Payload.(*Probe)
	req := pr.Req

	// What the source handed along is kept where this peer holds nothing live
	// or newer, under the source's expiry, serves this hop's discovery below
	// whatever its age, and rides no further.
	carried := e.rebuilt(pr.Lists)
	pr.Lists = nil
	for _, l := range carried {
		if ce := e.cache[l.Fn]; ce.Expires <= e.host.Now() && ce.Expires <= l.Expires {
			e.cache[l.Fn] = l
			if e.Ctr != nil {
				e.Ctr.DiscCarried.Add(1)
			}
		}
	}

	// The component the probe came to examine must still be hosted here
	// (discovery meta-data can be stale in a churning overlay).
	comp := e.LocalComponent(pr.CurCompID)
	if comp == nil {
		e.dropProbe(&pr, "stale-component")
		return
	}

	util := e.ledger.Utilization()
	if e.Met != nil {
		e.Met.PeerLoad.Observe(util)
	}
	// Overload shedding: a peer past the threshold declines new work outright
	// instead of queueing what it will serve too slowly; the probe dies with an
	// accountable reason and the request's other probes carry on. The threshold
	// compares committed utilization (hard + soft), so concurrent compositions
	// see each other's reservations — but a request is not shed against its own:
	// a sibling of a probe that already holds this component adds no load.
	_, mine := e.soft[softKey{reqID: pr.ReqID, compID: comp.ID}]
	if t := e.shed(); !mine && t > 0 && e.ledger.CommittedUtilization() >= t {
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

	// Step 2.4 (for this hop): record local QoS and resource states, in a
	// copy of the shared branch prefix (see Probe.Visited).
	pr.Visited = append(slices.Clip(pr.Visited), Hop{
		Fn:   pr.CurFn,
		Snap: service.Snapshot{Comp: *comp, Avail: e.ledger.AvailableHard(), Util: util},
		In:   service.LinkSnapshot{FromFn: pr.prevFn(), ToFn: pr.CurFn, BandAvail: band, Latency: lat},
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
		pr.Egress = service.LinkSnapshot{FromFn: pr.CurFn, ToFn: -1, BandAvail: eband, Latency: elat}
		if e.Trace != nil {
			e.Trace.Emit(obs.ProbeReturned(e.host.Now(), e.host.ID(), pr.ReqID,
				req.Dest, len(pr.Visited), ProbeSize(pr), pr.UID))
		}
		rep := pr // only the report escapes, not the hop's own copy
		e.sendReliable(p2p.Message{Type: MsgReport, To: req.Dest,
			Size: ProbeSize(pr), Payload: &rep, UID: pr.UID}, pr.ReqID, pr.UID)
		return
	}

	// Steps 2.2–2.3: derive next-hop functions and select next-hop
	// components, after resolving their duplicate lists through this peer's
	// discovery cache.
	var buf [4]string
	var hbuf [4]p2p.NodeID
	names, hints := buf[:0], hbuf[:0]
	for _, s := range succs {
		names = append(names, pr.Pattern.Function(s))
		root := p2p.NoNode
		if i := slices.IndexFunc(pr.Hints, func(h Hint) bool { return h.Fn == s }); i >= 0 {
			root = pr.Hints[i].Root
		}
		hints = append(hints, root)
	}
	// A hop the cache serves goes on from here, on the stack; one that waits
	// moves its probe into the resolution the lookups continue.
	if st := e.discoverAllCached(names, hints, carried, pr.ReqID); st != nil {
		st.pr = pr
		e.resolved(st)
		return
	}
	e.probeDiscovered(&pr, e.table, true)
}

// probeDiscovered fans probe pr out to its successor functions once their
// duplicate lists are in table, one entry each, or drops it if a lookup
// failed.
func (e *Engine) probeDiscovered(pr *Probe, table []List, ok bool) {
	if !ok {
		e.dropProbe(pr, "discovery")
		return
	}
	if !e.spawnNext(pr, pr.Pattern.Successors(pr.CurFn), table, nil) {
		// No eligible next hop anywhere: the probe dies here. Without
		// this record the probe would vanish from the accounting and
		// break the trace checker's conservation invariant. "down" says
		// a candidate would have qualified but for its peer being down.
		reason := "no-candidate"
		if e.next.down > 0 {
			reason = "down"
		}
		e.dropProbe(pr, reason)
	}
}

// dropProbe records a probe dying at this hop with a reason, for the
// overhead accounting and the trace, and returns its credit to the
// destination, whose collection need then not wait out the window for it.
func (e *Engine) dropProbe(pr *Probe, reason string) {
	if e.Trace != nil {
		e.Trace.Emit(obs.ProbeDropped(e.host.Now(), e.host.ID(), pr.ReqID,
			pr.Pattern.Function(pr.CurFn), pr.CurCompID, reason, len(pr.Visited), pr.UID))
	}
	cm := creditMsg{ReqID: pr.ReqID, UID: pr.UID, Credit: pr.Credit, Funcs: pr.Req.FGraph.NumFunctions()}
	e.sendReliable(p2p.Message{Type: MsgCredit, To: pr.Req.Dest, Size: creditSize,
		Payload: cm, UID: pr.UID}, pr.ReqID, pr.UID)
}

// creditMsg carries a dead probe's termination credit to the destination.
// Scalars only: Funcs sizes the collection window when the credit is the
// first message of its request to arrive.
type creditMsg struct {
	ReqID, UID, Credit uint64
	Funcs              int
}

const creditSize = 40

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
	e.soft[key] = softHold{res: res, cancel: e.softs.After(e.cfg.SoftTimeout, key)}
	return true
}

// expireSoft releases soft hold key SoftTimeout after it was made. A
// committed hold stopped its entry when it left the map.
func (e *Engine) expireSoft(key softKey) {
	if h, ok := e.soft[key]; ok {
		delete(e.soft, key)
		e.ledger.Release(h.res)
	}
}

// quota is the probing quota of next-hop function fn with duplicate list
// comps: the request's explicit per-function quota, else
// replica-proportional.
func (pr *Probe) quota(fn int, comps []*service.Component) int {
	if pr.Req.Quota != nil {
		if q := pr.Req.Quota[fn]; q > 0 {
			return q
		}
		return 1
	}
	if z := len(comps); z > 1 {
		return z
	}
	return 1
}

// nextHops is the engine-owned scratch in which one probe's next hops are
// planned and then emitted; the two steps run back to back inside one
// handler, so nothing else can touch it in between.
type nextHops struct {
	fns    []nextFn
	elig   []*service.Component // every function's eligible duplicates, end to end
	scored []scoredComp
	down   int // candidates eligible but for their peer being down
}

// nextFn is the plan for one next-hop function: its budget share, the
// number of probes it gets, and its eligible duplicates next.elig[lo:hi].
type nextFn struct {
	fn, budget, probes int
	lo, hi             int
}

type scoredComp struct {
	c     *service.Component
	score float64
}

// planNext distributes pr's budget over its next-hop functions by probing
// quota (step 2.2), collects each function's eligible duplicates from table
// (one entry per function, in order) and returns the number of probes
// spawnNext would emit. It draws no randomness and sends nothing.
func (e *Engine) planNext(pr *Probe, nextFns []int, table []List) int {
	nx := &e.next
	prevComp := pr.lastComp()
	nx.fns, nx.elig, nx.down = nx.fns[:0], nx.elig[:0], 0
	totalQuota := 0
	for i, fn := range nextFns {
		totalQuota += pr.quota(fn, table[i].Comps)
	}
	remaining, children := pr.Budget, 0
	for i, fn := range nextFns {
		comps := table[i].Comps
		q := pr.quota(fn, comps)
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
		lo := len(nx.elig)
		for _, c := range comps {
			if e.mayVisit(c, prevComp, pr) {
				nx.elig = append(nx.elig, c)
			}
		}
		probes := min(bk, q, len(nx.elig)-lo)
		nx.fns = append(nx.fns, nextFn{fn: fn, budget: bk, probes: probes, lo: lo, hi: len(nx.elig)})
		children += probes
	}
	return children
}

// spawnNext implements steps 2.2–2.4: distribute the budget over next-hop
// functions by probing quota, pick the most promising duplicates for each,
// and emit new probes, splitting pr's termination credit exactly over them.
// table holds one entry per next-hop function, in order; carry is everything
// the source resolved, for its probes to take their successors' lists from
// (hand), nil at later hops. It returns true if at least one probe was sent.
// The children are one allocation, sent by pointer and never written after.
func (e *Engine) spawnNext(pr *Probe, nextFns []int, table, carry []List) bool {
	// The credit split needs the number of children before the first one
	// leaves.
	children := e.planNext(pr, nextFns, table)
	if children == 0 {
		return false
	}
	kids := make([]Probe, children)
	emitted := 0
	for _, nf := range e.next.fns {
		if nf.probes == 0 {
			continue
		}
		newBudget := nf.budget / nf.probes
		if newBudget < 1 {
			newBudget = 1
		}
		succs := pr.Pattern.Successors(nf.fn)
		below := hintsFrom(pr.Hints, succs)
		var sent []List // every child's lists, end to end
		if carry != nil {
			sent = make([]List, 0, nf.probes*len(succs))
		}
		for _, c := range e.pickNextHop(e.next.elig[nf.lo:nf.hi], nf.probes, pr.Req) {
			// The child shares pr's Visited slice; see Probe.Visited.
			np := &kids[emitted]
			*np = *pr
			at := len(sent)
			sent = e.hand(sent, c.Peer, pr.Pattern, succs, carry)
			np.Hints, np.Lists = below, slices.Clip(sent[at:])
			np.Budget = newBudget
			np.Credit = creditShare(pr.Credit, children, emitted)
			np.CurFn = nf.fn
			np.CurCompID = c.ID
			np.UID = e.nextProbeUID()
			if e.Trace != nil {
				e.Trace.Emit(obs.ProbeSent(e.host.Now(), e.host.ID(), pr.ReqID,
					c.Peer, pr.Pattern.Function(nf.fn), c.ID, newBudget, len(pr.Visited),
					np.UID, pr.UID))
			}
			e.sendReliable(p2p.Message{Type: MsgProbe, To: c.Peer,
				Size: ProbeSize(*np), Payload: np, UID: np.UID}, pr.ReqID, np.UID)
			emitted++
		}
	}
	return true
}

// nextProbeUID mints a run-unique, per-seed-deterministic probe identity:
// the emitting node in the high bits, this engine's emission sequence in the
// low bits.
func (e *Engine) nextProbeUID() uint64 {
	e.probeSeq++
	return uint64(e.host.ID())<<32 | e.probeSeq
}

// mayVisit is the per-candidate eligibility rule: format-compatible with
// the previous hop's component (nil at the source), not already visited, not
// on a shedding peer, and on a peer the liveness view reports up — a probe
// sent to a peer known to be down would only die on the wire with its credit.
// A candidate that fails the last rule alone is counted in e.next.down.
func (e *Engine) mayVisit(c, prevComp *service.Component, pr *Probe) bool {
	if prevComp != nil && !service.Compatible(*prevComp, *c) {
		return false
	}
	if pr.visitedComp(c.ID) {
		return false
	}
	if t := e.shed(); t > 0 && e.Load.Oracle.Committed(c.Peer) >= t {
		return false // overload shedding: the peer is declining new work
	}
	if !e.alive(c.Peer) {
		e.next.down++
		return false
	}
	return true
}

// pickNextHop selects the k ≥ 1 most promising candidates using the
// composite local metric of step 2.3: network delay to the candidate,
// bandwidth headroom on the path, and the candidate peer's failure
// probability. It keeps the k best by (score, ID) in scratch, as a full sort
// would order them, writes them to the head of cands and returns it.
func (e *Engine) pickNextHop(cands []*service.Component, k int, req *service.Request) []*service.Component {
	if k >= len(cands) {
		return cands
	}
	if e.cfg.RandomNextHop {
		out := make([]*service.Component, k)
		for i, j := range e.host.Rand().Perm(len(cands))[:k] {
			out[i] = cands[j]
		}
		return out
	}
	best := e.next.scored[:0]
	for _, c := range cands {
		lat, ok := e.oracle.PathLatency(e.host.ID(), c.Peer)
		score := c.FailProb * 20
		if !ok {
			score += 1e9
		} else {
			score += lat / 50
		}
		// Every later term is ≥ 0 and rounding is monotone, so score bounds
		// the candidate's final score from below: one bound above the k-th
		// best so far cannot be chosen, and its path is never walked.
		if len(best) == k && score > best[k-1].score {
			continue
		}
		sc := scoredComp{c: c, score: e.nextHopScore(c, req, score, ok)}
		if i, _ := slices.BinarySearchFunc(best, sc, byScore); i < k {
			best = slices.Insert(best[:min(len(best), k-1)], i, sc)
		}
	}
	e.next.scored = best
	for i := range best {
		cands[i] = best[i].c
	}
	return cands[:k]
}

// byScore orders scored candidates by score, then ID: a total order.
func byScore(a, b scoredComp) int {
	if c := cmp.Compare(a.score, b.score); c != 0 {
		return c
	}
	return cmp.Compare(a.c.ID, b.c.ID)
}

// nextHopScore completes the composite local metric of one candidate, lower
// being more promising, from score, its failure and latency terms; reachable
// is whether an overlay path to it exists.
func (e *Engine) nextHopScore(c *service.Component, req *service.Request, score float64, reachable bool) float64 {
	if reachable {
		_, band, _ := e.oracle.Path(e.host.ID(), c.Peer)
		if band <= 0 {
			score += 1e9
		} else if req.Bandwidth > 0 {
			score += req.Bandwidth / band
		}
	}
	if e.Load != nil && e.Load.Aware {
		// Load-aware probing: a saturated peer serves this session (and
		// this very probe) at M/M/1-inflated latency. Charge each
		// candidate its predicted queueing delay in the same units as
		// path latency, so the trade is exactly "detour vs. queue": the
		// convex model barely perturbs routing at moderate load but
		// deflects probes hard off near-saturated peers.
		u := e.Load.Oracle.Util(c.Peer)
		if e.Load.Model.Base > 0 {
			score += float64(e.Load.Model.Delay(u)) / float64(50*time.Millisecond)
		} else {
			score += u * 3
		}
	}
	return score
}
