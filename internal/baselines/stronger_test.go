package baselines_test

import (
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/qos"
	"repro/internal/service"
)

// smallWorld keeps the exhaustive search space tractable for the
// differential oracle: few peers means few replicas per function, so even
// 6-function instances enumerate completely.
func smallWorld(seed int64, nf int) (*cluster.Cluster, baselines.World) {
	c := cluster.New(cluster.Options{Seed: seed, Peers: 12, Catalog: catalog(nf)})
	return c, c.World()
}

func score(g *service.Graph, req *service.Request, obj baselines.Objective) float64 {
	if obj == baselines.MinDelay {
		return g.QoS[qos.Delay]
	}
	return g.Cost(req)
}

// TestBacktrackingMatchesOptimal is the differential test the stress gates
// rely on: on every <=6-function instance the backtracking baseline must
// land on exactly the exhaustive-search optimum (same minimal score, and
// nil exactly when the oracle finds nothing qualified), for both
// objectives, under generous and tight delay requirements.
func TestBacktrackingMatchesOptimal(t *testing.T) {
	checked := 0
	for seed := int64(60); seed < 66; seed++ {
		for nf := 2; nf <= 6; nf++ {
			c, w := smallWorld(seed, nf)
			if len(c.FunctionsByReplicas()) < nf {
				continue // a function drew zero replicas on this tiny world
			}
			for _, delayReq := range []float64{5000, 150} {
				req := mkReq(c, uint64(nf), nf)
				req.QoSReq[qos.Delay] = delayReq
				for _, obj := range []baselines.Objective{baselines.MinCost, baselines.MinDelay} {
					oracle := baselines.Optimal(w, req, obj)
					if oracle.Examined >= 2_000_000 {
						t.Fatalf("seed=%d nf=%d: oracle truncated, shrink the world", seed, nf)
					}
					got, stats, ok := baselines.Backtracking(w, req, baselines.BacktrackOptions{
						Objective: obj, MaxExpand: 5_000_000,
					})
					if stats.Truncated {
						t.Fatalf("seed=%d nf=%d: backtracking truncated on a small instance", seed, nf)
					}
					if (oracle.Best == nil) != !ok {
						t.Fatalf("seed=%d nf=%d delay=%v obj=%v: oracle best=%v backtracking ok=%v",
							seed, nf, delayReq, obj, oracle.Best, ok)
					}
					if oracle.Best == nil {
						continue
					}
					want := score(oracle.Best, req, obj)
					have := score(got, req, obj)
					if math.Abs(want-have) > 1e-9 {
						t.Fatalf("seed=%d nf=%d delay=%v obj=%v: backtracking score %v, optimal %v",
							seed, nf, delayReq, obj, have, want)
					}
					if !got.Qualified(req) {
						t.Fatalf("seed=%d nf=%d: backtracking returned unqualified graph", seed, nf)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no instance had a qualified composition; the differential test proved nothing")
	}
}

// TestBacktrackingExpansionBound certifies the node-expansion bound is a
// hard ceiling: the search reports Expanded <= MaxExpand no matter the
// instance, and flags truncation when the budget ran out.
func TestBacktrackingExpansionBound(t *testing.T) {
	c, w := testWorld(61)
	req := mkReq(c, 1, 5)
	const budget = 5_000_000
	full, fullStats, ok := baselines.Backtracking(w, req, baselines.BacktrackOptions{MaxExpand: budget})
	if !ok || fullStats.Truncated {
		t.Fatalf("search with a %d budget on 50 peers should complete (ok=%v truncated=%v)", budget, ok, fullStats.Truncated)
	}
	if fullStats.Expanded == 0 || fullStats.Expanded > budget {
		t.Fatalf("expanded=%d outside (0, %d]", fullStats.Expanded, budget)
	}
	for _, budget := range []int{1, 3, 10, 100} {
		_, stats, _ := baselines.Backtracking(w, req, baselines.BacktrackOptions{
			MaxExpand: budget,
		})
		if stats.Expanded > budget {
			t.Fatalf("budget %d exceeded: expanded=%d", budget, stats.Expanded)
		}
		if budget < fullStats.Expanded && !stats.Truncated {
			t.Fatalf("budget %d < full %d but not flagged truncated", budget, fullStats.Expanded)
		}
	}
	_ = full
}

// TestBacktrackingDepthBound: with Depth=1 only the first function explores
// alternatives, so the search does strictly less work than the full run and
// never beats the true optimum.
func TestBacktrackingDepthBound(t *testing.T) {
	c, w := testWorld(62)
	req := mkReq(c, 2, 4)
	_, fullStats, ok := baselines.Backtracking(w, req, baselines.BacktrackOptions{})
	if !ok {
		t.Skip("nothing composable")
	}
	oracle := baselines.Optimal(w, req, baselines.MinCost)
	shallow, shallowStats, shallowOK := baselines.Backtracking(w, req, baselines.BacktrackOptions{Depth: 1})
	if shallowStats.Expanded >= fullStats.Expanded {
		t.Fatalf("depth bound did not shrink the search: %d vs %d", shallowStats.Expanded, fullStats.Expanded)
	}
	if shallowOK && oracle.Best != nil {
		if score(shallow, req, baselines.MinCost)+1e-9 < score(oracle.Best, req, baselines.MinCost) {
			t.Fatal("depth-bounded search beat the exhaustive optimum")
		}
	}
	// Determinism: identical options, identical selection.
	again, _, againOK := baselines.Backtracking(w, req, baselines.BacktrackOptions{Depth: 1})
	if shallowOK != againOK || (shallowOK && shallow.Key() != again.Key()) {
		t.Fatal("depth-bounded backtracking not deterministic")
	}
}

func TestGreedyDeterministicAndNeverBeatsOptimal(t *testing.T) {
	for seed := int64(70); seed < 75; seed++ {
		c, w := testWorld(seed)
		req := mkReq(c, uint64(seed), 3)
		g1, ok1 := baselines.Greedy(w, req)
		g2, ok2 := baselines.Greedy(w, req)
		if ok1 != ok2 || (ok1 && g1.Key() != g2.Key()) {
			t.Fatalf("seed=%d: greedy not deterministic", seed)
		}
		if !ok1 {
			continue
		}
		if len(g1.Comps) != req.FGraph.NumFunctions() {
			t.Fatalf("seed=%d: greedy assigned %d of %d functions", seed, len(g1.Comps), req.FGraph.NumFunctions())
		}
		oracle := baselines.Optimal(w, req, baselines.MinCost)
		if g1.Qualified(req) {
			if oracle.Best == nil {
				t.Fatalf("seed=%d: greedy qualified where exhaustive search found nothing", seed)
			}
			if score(g1, req, baselines.MinCost)+1e-9 < score(oracle.Best, req, baselines.MinCost) {
				t.Fatalf("seed=%d: greedy beat the exhaustive optimum", seed)
			}
		}
	}
}

func TestCommunitiesPartition(t *testing.T) {
	c, w := testWorld(63)
	comms := baselines.Communities(w, 4)
	if len(comms) != 4 {
		t.Fatalf("got %d communities, want 4", len(comms))
	}
	seen := make(map[int]int)
	for ci, members := range comms {
		for _, p := range members {
			if prev, dup := seen[int(p)]; dup {
				t.Fatalf("peer %d in communities %d and %d", p, prev, ci)
			}
			seen[int(p)] = ci
		}
	}
	if len(seen) != len(c.Peers) {
		t.Fatalf("partition covers %d of %d peers", len(seen), len(c.Peers))
	}
	again := baselines.Communities(w, 4)
	for i := range comms {
		if len(comms[i]) != len(again[i]) {
			t.Fatal("partition not deterministic")
		}
		for j := range comms[i] {
			if comms[i][j] != again[i][j] {
				t.Fatal("partition not deterministic")
			}
		}
	}
	// Degenerate requests must clamp, not crash.
	if one := baselines.Communities(w, 1); len(one) != 1 || len(one[0]) != len(c.Peers) {
		t.Fatal("k=1 must put everyone in one community")
	}
	if huge := baselines.Communities(w, 10_000); len(huge) != len(c.Peers) {
		t.Fatalf("k beyond peer count must clamp to %d, got %d", len(c.Peers), len(huge))
	}
}

// TestCommunityValidAgainstExhaustive validates the partition-based
// baseline against the oracle: whenever it claims a qualified composition
// the exhaustive search must agree one exists and the community choice can
// only be costlier; its graphs are always structurally complete and alive.
func TestCommunityValidAgainstExhaustive(t *testing.T) {
	qualified := 0
	for seed := int64(80); seed < 88; seed++ {
		c, w := testWorld(seed)
		req := mkReq(c, uint64(seed), 3)
		g, ok := baselines.Community(w, req, 4)
		g2, ok2 := baselines.Community(w, req, 4)
		if ok != ok2 || (ok && g.Key() != g2.Key()) {
			t.Fatalf("seed=%d: community not deterministic", seed)
		}
		if !ok {
			continue
		}
		if len(g.Comps) != req.FGraph.NumFunctions() {
			t.Fatalf("seed=%d: community assigned %d of %d functions", seed, len(g.Comps), req.FGraph.NumFunctions())
		}
		for _, s := range g.Comps {
			if !c.Net.Alive(s.Comp.Peer) {
				t.Fatalf("seed=%d: community used a dead peer", seed)
			}
		}
		oracle := baselines.Optimal(w, req, baselines.MinCost)
		if g.Qualified(req) {
			qualified++
			if oracle.Best == nil {
				t.Fatalf("seed=%d: community qualified where exhaustive search found nothing", seed)
			}
			if score(g, req, baselines.MinCost)+1e-9 < score(oracle.Best, req, baselines.MinCost) {
				t.Fatalf("seed=%d: community beat the exhaustive optimum", seed)
			}
		}
	}
	if qualified == 0 {
		t.Fatal("community never qualified on an idle 50-peer cluster; the baseline is broken")
	}
}

// Community selection must keep working when peers die: the partition is
// rebuilt from live state each call, and dead peers never appear in the
// selection even if they remain in a community.
func TestCommunitySkipsDeadPeers(t *testing.T) {
	c, w := testWorld(64)
	req := mkReq(c, 1, 2)
	g, ok := baselines.Community(w, req, 4)
	if !ok {
		t.Skip("nothing composable")
	}
	for _, s := range g.Comps {
		c.Net.Fail(s.Comp.Peer)
	}
	g2, ok2 := baselines.Community(w, req, 4)
	if !ok2 {
		return // acceptable: killing peers can make it infeasible
	}
	for _, s := range g2.Comps {
		if !c.Net.Alive(s.Comp.Peer) {
			t.Fatal("community selected a dead peer")
		}
	}
}
