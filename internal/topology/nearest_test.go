package topology

// Differential harness for the mesh search: nearestPeers reads a settled
// node's links lazily in weight order, and the full-expansion heap search it
// replaced — every link of a settled node pushed at once — lives here as the
// reference. Both run on generated graphs and on the adversarial weight
// families of diff_test.go and must return the same peers at the same
// distance bits, in the same order wherever the distances differ.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullNearest is the reference's reusable scratch: dist restored after every
// search through touched, as truncState is.
type fullNearest struct {
	dist    []float64
	touched []int32
	pq      distPQ
}

// search is nearestPeers as it was: a lazy-deletion heap Dijkstra from src
// that relaxes and pushes every link of each node it settles, until k peers
// other than src's own have settled.
func (s *fullNearest) search(g *Graph, src int, peerOf []int32, k int) []settledPeer {
	if len(s.dist) != g.n {
		s.dist = make([]float64, g.n)
		for i := range s.dist {
			s.dist[i] = math.Inf(1)
		}
	}
	var out []settledPeer
	s.pq.reset()
	s.dist[src] = 0
	s.touched = append(s.touched[:0], int32(src))
	s.pq.push(distItem{node: int32(src), dist: 0})
	for s.pq.len() > 0 && len(out) < k {
		it := s.pq.pop()
		u := it.node
		if it.dist > s.dist[u] {
			continue // stale: u settled at a smaller distance
		}
		if p := peerOf[u]; p >= 0 && int(u) != src {
			out = append(out, settledPeer{peer: p, dist: it.dist})
		}
		for i, end := g.off[u], g.off[u+1]; i < end; i++ {
			v := g.to[i]
			if nd := it.dist + g.w[i]; nd < s.dist[v] {
				if math.IsInf(s.dist[v], 1) {
					s.touched = append(s.touched, v)
				}
				s.dist[v] = nd
				s.pq.push(distItem{node: v, dist: nd})
			}
		}
	}
	for _, v := range s.touched {
		s.dist[v] = math.Inf(1)
	}
	return out
}

// nearestDiff names the first way got and want differ — length, a distance's
// bits, or the peers at one distance: in order where that distance is held by
// one peer, as a set where several tie — or returns "". The last run of a
// full answer may be a tie k cut short, so there each search may keep other
// peers of that distance: got's must be distinct and at it, by distOf.
func nearestDiff(got, want []settledPeer, k int, distOf func(peer int32) float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d peers, reference %d", len(got), len(want))
	}
	for i := 0; i < len(want); {
		j := i + 1
		for j < len(want) && want[j].dist == want[i].dist {
			j++
		}
		for at := i; at < j; at++ {
			if math.Float64bits(got[at].dist) != math.Float64bits(want[at].dist) {
				return fmt.Sprintf("peer %d at %v, reference %v", at, got[at].dist, want[at].dist)
			}
		}
		if j == len(want) && len(want) == k {
			for at := i; at < j; at++ {
				if got[at].peer == want[at].peer {
					continue
				}
				for _, p := range got[:at] {
					if p.peer == got[at].peer {
						return fmt.Sprintf("peer %d listed twice", p.peer)
					}
				}
				if d := distOf(got[at].peer); math.Float64bits(d) != math.Float64bits(want[i].dist) {
					return fmt.Sprintf("peer %d listed at %v, is at %v", got[at].peer, want[i].dist, d)
				}
			}
			break
		}
		for at := i; at < j; at++ {
			found := false
			for _, w := range want[i:j] {
				found = found || w.peer == got[at].peer
			}
			if !found || j-i == 1 && got[at].peer != want[at].peer {
				return fmt.Sprintf("peers %v at %v, reference %v", got[i:j], want[i].dist, want[i:j])
			}
		}
		i = j
	}
	return ""
}

// diffNearest hosts a peer on every third node of g in a seeded order and
// runs both searches at k = 1, 4 and 8 from every node, or from every
// (n/3000)-th on larger graphs.
func diffNearest(t *testing.T, name string, g *Graph, rng *rand.Rand) {
	t.Helper()
	peerOf := make([]int32, g.n)
	for i := range peerOf {
		peerOf[i] = -1
	}
	hosts := rng.Perm(g.n)[:(g.n+2)/3]
	for p, ip := range hosts {
		peerOf[ip] = int32(p)
	}
	var ts truncState
	var ref fullNearest
	for _, k := range []int{1, 4, 8} {
		for src := 0; src < g.n; src += max(1, g.n/3000) {
			var dist []float64
			distOf := func(p int32) float64 {
				if dist == nil {
					dist = g.Dijkstra(src)
				}
				return dist[hosts[p]]
			}
			got := g.nearestPeers(src, peerOf, k, &ts)
			if d := nearestDiff(got, ref.search(g, src, peerOf, k), k, distOf); d != "" {
				t.Fatalf("%s source %d k %d: lazy search %s", name, src, k, d)
			}
		}
	}
}

// TestNearestPeersMatchesFullExpansion holds the weight-ordered search to the
// full-expansion reference on generated graphs of 3,000 and 30,000 nodes at
// seeds 1–5 and on the adversarial families: zero weights, a 1e9 weight
// ratio, weights the running sum absorbs, subnormal weights, graphs in
// pieces.
func TestNearestPeersMatchesFullExpansion(t *testing.T) {
	for _, n := range []int{3000, 30000} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			diffNearest(t, fmt.Sprintf("%d seed %d", n, seed), GeneratePowerLaw(n, 2, 2, 30, rng), rng)
		}
	}
	for _, script := range adversarialScripts {
		switch script.name {
		case "zero-weight", "ratio-1e9", "absorbed", "subnormal", "disconnected":
		default:
			continue
		}
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(150)
			attempts := n * 3
			if !script.backbone {
				attempts = n / 2
			}
			g, _ := buildBoth(rng, n, attempts, script)
			diffNearest(t, fmt.Sprintf("%s seed %d", script.name, seed), g, rng)
		}
	}
}
