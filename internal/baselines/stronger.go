// stronger.go implements the credible competitor baselines the stress
// sweep compares SpiderNet against, beyond the paper's random/static
// strawmen: a greedy nearest-candidate heuristic, a depth-bounded
// backtracking selection in the style of Ngoko et al. (exact on small
// instances, budgeted on large ones), and a community/partition-based
// composition in the style of Cherifi et al. (selection restricted to
// latency communities around the requester, expanding outward on demand).
//
// All three select from the same omniscient World as the paper baselines
// and admit through the same ledgers, so success ratios are directly
// comparable with BCP's.
package baselines

import (
	"math"
	"sort"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// aliveCandidates returns the alive components for pattern function i,
// sorted by component ID for a deterministic exploration order.
func aliveCandidates(w World, fn string) []service.Component {
	var out []service.Component
	for _, c := range w.ComponentsFor(fn) {
		if w.Alive(c.Peer) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// greedySelect assigns each function, in index order, the candidate that
// minimizes the immediate marginal delay: the worst path latency from the
// already-assigned predecessors (the request source for pattern sources)
// plus the candidate's own processing delay. Ties break on component ID.
// No lookahead and no global QoS check — that is what makes it a heuristic.
func greedySelect(w World, req *service.Request, pat *fgraph.Graph, cands [][]service.Component) ([]service.Component, bool) {
	n := pat.NumFunctions()
	assign := make([]service.Component, n)
	for i := 0; i < n; i++ {
		best := -1
		bestScore := math.Inf(1)
		for ci, c := range cands[i] {
			score := c.Qp[qos.Delay]
			worst := 0.0
			ok := true
			preds := pat.Predecessors(i)
			if len(preds) == 0 {
				lat, _, routed := w.Path(req.Source, c.Peer)
				if !routed {
					ok = false
				}
				worst = lat
			}
			for _, p := range preds {
				lat, _, routed := w.Path(assign[p].Peer, c.Peer)
				if !routed {
					ok = false
					break
				}
				if lat > worst {
					worst = lat
				}
			}
			if !ok {
				continue
			}
			score += worst
			if score < bestScore {
				bestScore, best = score, ci
			}
		}
		if best < 0 {
			return nil, false
		}
		assign[i] = cands[i][best]
	}
	return assign, true
}

// Greedy picks, function by function, the alive candidate closest to the
// already-selected upstream hops (path latency plus processing delay). It
// models the obvious production heuristic: locally cheap, globally blind.
// The returned graph may or may not be qualified.
func Greedy(w World, req *service.Request) (*service.Graph, bool) {
	pat := req.FGraph
	cands := make([][]service.Component, pat.NumFunctions())
	for i := range cands {
		if cands[i] = aliveCandidates(w, pat.Function(i)); len(cands[i]) == 0 {
			return nil, false
		}
	}
	assign, ok := greedySelect(w, req, pat, cands)
	if !ok {
		return nil, false
	}
	return BuildGraph(w, req, pat, assign)
}

// BacktrackOptions configures the backtracking selection.
type BacktrackOptions struct {
	// Objective selects the score minimized (MinCost or MinDelay).
	Objective Objective
	// MaxExpand bounds the number of node expansions (candidate placements
	// tried); the search stops, keeping its best-so-far, when the budget is
	// spent. 0 takes DefaultMaxExpand. The search never exceeds this bound.
	MaxExpand int
	// Depth bounds where alternatives are explored: at function depths
	// >= Depth only the heuristically first candidate is tried, turning the
	// tail of the search greedy. 0 means unbounded (alternatives at every
	// depth — exact on small instances).
	Depth int
}

// DefaultMaxExpand is the standard node-expansion budget.
const DefaultMaxExpand = 50000

// BacktrackStats reports the search effort.
type BacktrackStats struct {
	// Expanded counts candidate placements tried (node expansions). It
	// never exceeds the configured MaxExpand.
	Expanded int
	// Truncated reports that the expansion budget ran out before the
	// search completed, so the result may be suboptimal.
	Truncated bool
}

// Backtracking runs a depth-first backtracking selection over every
// composition pattern (Ngoko et al.'s selection-with-backtracking, adapted
// to the QoS model here): functions are assigned in index order, candidates
// per function are explored in a deterministic heuristic order (ascending
// processing delay, then component ID), and two admissible prunes cut the
// tree — a per-branch accumulated-delay lower bound against the delay
// requirement, and a best-so-far bound on the objective (partial cost and
// partial delay only ever grow as the assignment extends). With an
// unbounded depth and budget the result is exactly the exhaustive-search
// optimum; the differential test certifies that on every small instance.
func Backtracking(w World, req *service.Request, opt BacktrackOptions) (*service.Graph, BacktrackStats, bool) {
	if opt.MaxExpand <= 0 {
		opt.MaxExpand = DefaultMaxExpand
	}
	var stats BacktrackStats
	var best *service.Graph
	bestScore := math.Inf(1)

	for _, pat := range req.FGraph.Patterns() {
		n := pat.NumFunctions()
		cands := make([][]service.Component, n)
		feasible := true
		for i := 0; i < n; i++ {
			cs := aliveCandidates(w, pat.Function(i))
			if len(cs) == 0 {
				feasible = false
				break
			}
			// Heuristic order: fastest component first, ID tie-break. With a
			// depth bound this makes the greedy tail pick the locally fastest
			// candidate, like Greedy does.
			sort.Slice(cs, func(a, b int) bool {
				if cs[a].Qp[qos.Delay] != cs[b].Qp[qos.Delay] {
					return cs[a].Qp[qos.Delay] < cs[b].Qp[qos.Delay]
				}
				return cs[a].ID < cs[b].ID
			})
			cands[i] = cs
		}
		if !feasible {
			continue
		}
		branches := pat.Branches()
		assign := make([]service.Component, n)

		// delayLB returns a lower bound on the final worst-branch delay once
		// functions [0, upto) are assigned: per branch, the accumulated link
		// latency and processing delay over the branch's assigned prefix.
		// Remaining hops only add non-negative terms, so pruning on it never
		// cuts a qualified completion.
		delayLB := func(upto int) float64 {
			worst := 0.0
			for _, br := range branches {
				var d float64
				prev := req.Source
				for _, fn := range br {
					if fn >= upto {
						break
					}
					lat, _, routed := w.Path(prev, assign[fn].Peer)
					if !routed {
						return math.Inf(1)
					}
					d += lat
					d += assign[fn].Qp[qos.Delay]
					prev = assign[fn].Peer
				}
				if d > worst {
					worst = d
				}
			}
			return worst
		}
		// costLB returns a lower bound on the final ψ cost: the per-component
		// resource terms of the assigned prefix (bandwidth terms are left
		// out — they only add, keeping the bound admissible).
		costLB := func(upto int) float64 {
			var cost float64
			for i := 0; i < upto; i++ {
				avail := w.Avail(assign[i].Peer)
				for r := range avail {
					if req.Res[r] == 0 {
						continue
					}
					if avail[r] <= 0 {
						return math.Inf(1)
					}
					cost += service.PsiWeight * req.Res[r] / avail[r]
				}
			}
			return cost
		}

		var walk func(i int) bool
		walk = func(i int) bool {
			if i == n {
				if g, ok := BuildGraph(w, req, pat, assign); ok && g.Qualified(req) {
					score := g.Cost(req)
					if opt.Objective == MinDelay {
						score = g.QoS[qos.Delay]
					}
					if score < bestScore {
						bestScore, best = score, g
					}
				}
				return true
			}
			limit := len(cands[i])
			if opt.Depth > 0 && i >= opt.Depth {
				limit = 1 // greedy tail: no alternatives beyond the depth bound
			}
			for ci := 0; ci < limit; ci++ {
				if stats.Expanded >= opt.MaxExpand {
					stats.Truncated = true
					return false
				}
				stats.Expanded++
				assign[i] = cands[i][ci]
				d := delayLB(i + 1)
				if d > req.QoSReq[qos.Delay] {
					continue // no completion can satisfy the delay requirement
				}
				switch opt.Objective {
				case MinDelay:
					if d >= bestScore {
						continue // cannot beat the incumbent
					}
				default:
					if costLB(i+1) >= bestScore {
						continue
					}
				}
				if !walk(i + 1) {
					return false
				}
			}
			return true
		}
		walk(0)
	}
	return best, stats, best != nil
}

// DefaultCommunities is the community count the partition-based baseline
// uses when none is given.
const DefaultCommunities = 4

// Communities partitions the peer set into (at most) k latency communities
// around deterministic landmarks: the landmarks are evenly spaced in sorted
// peer-ID order, and every peer joins the landmark it reaches with the
// lowest path latency (ties and unreachable peers resolve to the lowest
// community index). The partition is a pure function of the world state.
func Communities(w World, k int) [][]p2p.NodeID {
	peers := w.Peers()
	if k < 1 {
		k = 1
	}
	if k > len(peers) {
		k = len(peers)
	}
	if k == 0 {
		return nil
	}
	landmarks := make([]p2p.NodeID, k)
	for i := range landmarks {
		landmarks[i] = peers[i*len(peers)/k]
	}
	out := make([][]p2p.NodeID, k)
	for _, p := range peers {
		best, bestLat := 0, math.Inf(1)
		for li, l := range landmarks {
			lat, _, ok := w.Path(p, l)
			if !ok {
				continue
			}
			if lat < bestLat {
				bestLat, best = lat, li
			}
		}
		out[best] = append(out[best], p)
	}
	return out
}

// Community runs the partition-based composition (Cherifi et al.): the
// peer set is split into latency communities, communities are ranked by
// their landmark's distance from the requester, and the greedy selection
// runs inside a candidate pool that starts at the nearest community and
// expands one community at a time until a qualified composition exists.
// The final expansion is the whole system, so community selection can only
// lose to Greedy by stopping early in a pool that qualifies locally but
// carries a worse global cost — and win by keeping traffic local. k <= 0
// takes DefaultCommunities. The returned graph may or may not be qualified.
func Community(w World, req *service.Request, k int) (*service.Graph, bool) {
	if k <= 0 {
		k = DefaultCommunities
	}
	comms := Communities(w, k)
	if len(comms) == 0 {
		return nil, false
	}
	// Rank communities by the requester's latency to each community's first
	// member (its landmark-side representative); unreachable communities
	// sort last, index tie-break keeps the order deterministic.
	type ranked struct {
		idx int
		lat float64
	}
	order := make([]ranked, 0, len(comms))
	for i, members := range comms {
		if len(members) == 0 {
			continue
		}
		lat, _, ok := w.Path(req.Source, members[0])
		if !ok {
			lat = math.Inf(1)
		}
		order = append(order, ranked{i, lat})
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].lat != order[b].lat {
			return order[a].lat < order[b].lat
		}
		return order[a].idx < order[b].idx
	})

	pat := req.FGraph
	n := pat.NumFunctions()
	all := make([][]service.Component, n)
	for i := 0; i < n; i++ {
		if all[i] = aliveCandidates(w, pat.Function(i)); len(all[i]) == 0 {
			return nil, false
		}
	}

	inPool := make(map[p2p.NodeID]bool)
	var lastGraph *service.Graph
	lastOK := false
	for _, r := range order {
		for _, p := range comms[r.idx] {
			inPool[p] = true
		}
		pool := make([][]service.Component, n)
		feasible := true
		for i := 0; i < n; i++ {
			for _, c := range all[i] {
				if inPool[c.Peer] {
					pool[i] = append(pool[i], c)
				}
			}
			if len(pool[i]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		assign, ok := greedySelect(w, req, pat, pool)
		if !ok {
			continue
		}
		g, ok := BuildGraph(w, req, pat, assign)
		if !ok {
			continue
		}
		lastGraph, lastOK = g, true
		if g.Qualified(req) {
			return g, true
		}
	}
	return lastGraph, lastOK
}
