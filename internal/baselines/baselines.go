// Package baselines implements the comparison algorithms of the paper's
// evaluation (§6.1): the optimal algorithm (unbounded flooding / exhaustive
// search), the random algorithm, the static algorithm, and the centralized
// global-state scheme whose maintenance overhead Figure 8's discussion
// compares against BCP.
//
// The baselines select compositions from a global view of the system — that
// is exactly what distinguishes them from SpiderNet — but they admit
// resources through the same ledgers and bandwidth oracle as BCP, so success
// rates are directly comparable.
package baselines

import (
	"math"
	"slices"
	"sort"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// World is the global view a centralized algorithm assumes: every
// component, every peer's availability and liveness, and the data plane.
type World interface {
	// ComponentsFor lists every registered component providing fn.
	ComponentsFor(fn string) []service.Component
	// Alive reports whether a peer is up.
	Alive(p p2p.NodeID) bool
	// Avail returns a peer's uncommitted end-system resources.
	Avail(p p2p.NodeID) qos.Resources
	// Path returns overlay path latency (ms) and available bandwidth (kbps).
	Path(a, b p2p.NodeID) (lat, band float64, ok bool)
	// Commit admits res on peer p, returning success.
	Commit(p p2p.NodeID, res qos.Resources) bool
	// Free releases a previous Commit.
	Free(p p2p.NodeID, res qos.Resources)
	// AllocBandwidth and ReleaseBandwidth admit/release link bandwidth.
	AllocBandwidth(a, b p2p.NodeID, kbps float64) bool
	ReleaseBandwidth(a, b p2p.NodeID, kbps float64)
	// Peers lists every peer in the system, sorted by ID. The
	// community/partition baseline clusters over this universe.
	Peers() []p2p.NodeID
}

// Objective selects what the optimal algorithm minimizes.
type Objective int

const (
	// MinCost minimizes the ψ cost function (load balance), as SpiderNet's
	// destination does.
	MinCost Objective = iota
	// MinDelay minimizes end-to-end delay, the objective of Figure 11.
	MinDelay
)

// SearchResult reports an exhaustive search.
type SearchResult struct {
	Best      *service.Graph
	Qualified []*service.Graph
	// Examined counts every complete candidate service graph the flooding
	// scheme would have probed — the paper's "number of probes required by
	// the optimal algorithm" (17^3 = 4913 in §6.2).
	Examined int
}

// maxExamined bounds the exhaustive enumeration so pathological workloads
// terminate; the experiments stay far below it.
const maxExamined = 2_000_000

// Optimal exhaustively enumerates every candidate service graph (all
// composition patterns × all duplicate choices), keeps the qualified ones,
// and returns the best under obj. It is the unbounded-flooding comparator.
func Optimal(w World, req *service.Request, obj Objective) SearchResult {
	var res SearchResult
	for _, pat := range req.FGraph.Patterns() {
		n := pat.NumFunctions()
		lists := make([][]service.Component, n)
		feasible := true
		for i := 0; i < n; i++ {
			for _, c := range w.ComponentsFor(pat.Function(i)) {
				if w.Alive(c.Peer) {
					lists[i] = append(lists[i], c)
				}
			}
			if len(lists[i]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		assign := make([]service.Component, n)
		var walk func(i int) bool
		walk = func(i int) bool {
			if res.Examined >= maxExamined {
				return false
			}
			if i == n {
				res.Examined++
				if g, ok := BuildGraph(w, req, pat, assign); ok && g.Qualified(req) {
					res.Qualified = append(res.Qualified, g)
				}
				return true
			}
			for _, c := range lists[i] {
				assign[i] = c
				if !walk(i + 1) {
					return false
				}
			}
			return true
		}
		walk(0)
	}
	if len(res.Qualified) == 0 {
		return res
	}
	score := func(g *service.Graph) float64 {
		if obj == MinDelay {
			return g.QoS[qos.Delay]
		}
		return g.Cost(req)
	}
	sort.SliceStable(res.Qualified, func(i, j int) bool {
		return score(res.Qualified[i]) < score(res.Qualified[j])
	})
	res.Best = res.Qualified[0]
	return res
}

// Random picks a uniformly random functionally qualified duplicate for each
// function, ignoring the user's QoS and resource requirements entirely
// (§6.1). The returned graph may or may not be qualified.
func Random(w World, req *service.Request, intn func(int) int) (*service.Graph, bool) {
	pat := req.FGraph
	n := pat.NumFunctions()
	assign := make([]service.Component, n)
	for i := 0; i < n; i++ {
		var cands []service.Component
		for _, c := range w.ComponentsFor(pat.Function(i)) {
			if w.Alive(c.Peer) {
				cands = append(cands, c)
			}
		}
		if len(cands) == 0 {
			return nil, false
		}
		assign[i] = cands[intn(len(cands))]
	}
	return BuildGraph(w, req, pat, assign)
}

// Static picks a pre-defined duplicate per function — deterministically the
// lexicographically smallest component ID — again ignoring QoS and resources
// (§6.1).
func Static(w World, req *service.Request) (*service.Graph, bool) {
	pat := req.FGraph
	n := pat.NumFunctions()
	assign := make([]service.Component, n)
	for i := 0; i < n; i++ {
		var best *service.Component
		for _, c := range w.ComponentsFor(pat.Function(i)) {
			c := c
			if !w.Alive(c.Peer) {
				continue
			}
			if best == nil || c.ID < best.ID {
				best = &c
			}
		}
		if best == nil {
			return nil, false
		}
		assign[i] = *best
	}
	return BuildGraph(w, req, pat, assign)
}

// BuildGraph materializes an assignment into a service graph with fresh
// snapshots, link states, and accumulated QoS (branch-wise max), checking
// format compatibility along every dependency edge. ok=false if the
// assignment is structurally impossible (disconnected peers or incompatible
// formats).
func BuildGraph(w World, req *service.Request, pat *fgraph.Graph, assign []service.Component) (*service.Graph, bool) {
	g := &service.Graph{
		Pattern: pat,
		Comps:   make([]service.Snapshot, len(assign)),
		Req:     req,
	}
	for i, c := range assign {
		g.Comps[i] = service.Snapshot{Comp: c, Avail: w.Avail(c.Peer)}
	}
	// Format compatibility on every dependency edge.
	for i := range assign {
		for _, s := range pat.Successors(i) {
			if !service.Compatible(assign[i], assign[s]) {
				return nil, false
			}
		}
	}
	type lk struct{ from, to int }
	seen := make(map[lk]bool)
	addLink := func(from, to int, a, b p2p.NodeID) bool {
		if seen[lk{from, to}] {
			return true
		}
		lat, band, ok := w.Path(a, b)
		if !ok {
			return false
		}
		seen[lk{from, to}] = true
		g.Links = append(g.Links, service.LinkSnapshot{FromFn: from, ToFn: to, BandAvail: band, Latency: lat})
		return true
	}
	// Accumulate QoS per branch; merge with component-wise max.
	var total qos.Vector
	for _, br := range pat.Branches() {
		var q qos.Vector
		prev := req.Source
		prevFn := -1
		okBranch := true
		for _, fn := range br {
			c := assign[fn]
			lat, _, ok := w.Path(prev, c.Peer)
			if !ok || !addLink(prevFn, fn, prev, c.Peer) {
				okBranch = false
				break
			}
			q[qos.Delay] += lat
			q = q.Add(c.Qp)
			prev, prevFn = c.Peer, fn
		}
		if !okBranch {
			return nil, false
		}
		lat, _, ok := w.Path(prev, req.Dest)
		if !ok || !addLink(prevFn, -1, prev, req.Dest) {
			return nil, false
		}
		q[qos.Delay] += lat
		total = total.Max(q)
	}
	g.QoS = total
	slices.SortFunc(g.Links, service.LinkSnapshot.Compare)
	return g, true
}

// Admit commits a graph's resources and bandwidth through the world,
// rolling everything back on failure. A request "succeeds" for the success
// ratio metric iff the graph is qualified AND admission succeeds.
func Admit(w World, g *service.Graph) bool {
	req := g.Req
	var committed []p2p.NodeID
	type pair struct{ a, b p2p.NodeID }
	var allocated []pair
	rollback := func() {
		for _, p := range committed {
			w.Free(p, req.Res)
		}
		for _, l := range allocated {
			w.ReleaseBandwidth(l.a, l.b, req.Bandwidth)
		}
	}
	for _, s := range g.Comps {
		if !w.Commit(s.Comp.Peer, req.Res) {
			rollback()
			return false
		}
		committed = append(committed, s.Comp.Peer)
	}
	if g.ReservedPairs(func(_ int, a, b p2p.NodeID) bool {
		if !w.AllocBandwidth(a, b, req.Bandwidth) {
			return false
		}
		allocated = append(allocated, pair{a, b})
		return true
	}) {
		return true
	}
	rollback()
	return false
}

// Release frees everything Admit committed for g.
func Release(w World, g *service.Graph) {
	req := g.Req
	for _, s := range g.Comps {
		w.Free(s.Comp.Peer, req.Res)
	}
	g.ReservedPairs(func(_ int, a, b p2p.NodeID) bool {
		w.ReleaseBandwidth(a, b, req.Bandwidth)
		return true
	})
}

// CentralizedOverheadPerPeriod returns the number of state-update messages
// a global-view scheme sends per refresh period. In a decentralized system
// any peer may initiate composition, so the "global view" must be
// replicated at every peer: each of the N peers pushes its QoS/resource
// state to the other N-1 peers, N·(N-1) messages per period. This recurring
// cost — independent of the request rate — is what BCP's on-demand selective
// state collection eliminates (§6.1's order-of-magnitude claim).
func CentralizedOverheadPerPeriod(peers int) int { return peers * (peers - 1) }

// OptimalProbeCount returns the number of probes unbounded flooding needs
// for a linear request: the product of per-function replica counts
// (17³ = 4913 in the paper's prototype experiment).
func OptimalProbeCount(w World, req *service.Request) int {
	n := 1
	for i := 0; i < req.FGraph.NumFunctions(); i++ {
		z := 0
		for _, c := range w.ComponentsFor(req.FGraph.Function(i)) {
			if w.Alive(c.Peer) {
				z++
			}
		}
		if z == 0 {
			return 0
		}
		if n > maxExamined/z {
			return maxExamined
		}
		n *= z
	}
	if math.MaxInt32 < n {
		return math.MaxInt32
	}
	return n
}
