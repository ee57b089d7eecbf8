package dht

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/simnet"
)

// distMatrix draws an n×n distance table from seed. levels == 0 draws
// continuous distances (ties are rare); levels == k > 0 draws integers in
// [0, k), so most buckets hold several equally near members and the
// smallest-index tie rule decides.
func distMatrix(n int, seed int64, levels int) func(i, j int) float64 {
	rng := rand.New(rand.NewSource(seed))
	m := make([]float64, n*n)
	for k := range m {
		if levels == 0 {
			m[k] = rng.Float64() * 200
		} else {
			m[k] = float64(rng.Intn(levels))
		}
	}
	return func(i, j int) float64 { return m[i*n+j] }
}

// nearOracle checks every slot of every node against brute force: slot
// (row, col) of node i must hold, of all nodes sharing exactly row digits
// with i and having digit col next, the one with the smallest dist(i, ·),
// ties to the smallest nodes-slice index; empty when there is none.
func nearOracle(t testing.TB, nodes []*Node, dist func(i, j int) float64) {
	t.Helper()
	for i, a := range nodes {
		var want [NumDigits][16]int
		for r := range want {
			for c := range want[r] {
				want[r][c] = -1
			}
		}
		for j, b := range nodes {
			row := a.self.ID.CommonPrefix(b.self.ID)
			if j == i || row >= NumDigits {
				continue
			}
			col := b.self.ID.Digit(row)
			if w := want[row][col]; w == -1 || dist(i, j) < dist(i, w) {
				want[row][col] = j // j ascends, so an equal distance keeps the smaller index
			}
		}
		for row := 0; row < NumDigits; row++ {
			for col := 0; col < 16; col++ {
				got, w := a.tableSlot(row, col), want[row][col]
				if w == -1 {
					if got.Addr != p2p.NoNode {
						t.Fatalf("node %d table[%d][%d] = %+v, want empty", i, row, col, got)
					}
					continue
				}
				if got != nodes[w].self {
					t.Fatalf("node %d table[%d][%d] = %+v, want node %d %+v (dist %v)",
						i, row, col, got, w, nodes[w].self, dist(i, w))
				}
			}
		}
	}
}

// checkNear builds a ring of n nodes with BuildNear over a drawn distance
// table and holds it to the oracle, and its leaf sets to Build's.
func checkNear(t testing.TB, n int, seed int64, levels int) {
	t.Helper()
	ids := idSet(n, seed)
	dist := distMatrix(n, seed, levels)
	near := freshNodes(ids)
	BuildNear(near, dist)
	nearOracle(t, near, dist)
	plain := freshNodes(ids)
	Build(plain)
	for i := range near {
		if len(near[i].leaves) != len(plain[i].leaves) {
			t.Fatalf("node %d: %d leaves, Build has %d", i, len(near[i].leaves), len(plain[i].leaves))
		}
		for j := range near[i].leaves {
			if near[i].leaves[j] != plain[i].leaves[j] {
				t.Fatalf("node %d leaf %d: %+v, Build has %+v", i, j, near[i].leaves[j], plain[i].leaves[j])
			}
		}
	}
}

func TestBuildNearPicksNearest(t *testing.T) {
	for _, n := range []int{2, 3, 17, 64, 200, 600} {
		for seed := int64(0); seed < 3; seed++ {
			for _, levels := range []int{0, 2, 5} {
				checkNear(t, n, seed, levels)
			}
		}
	}
}

// TestBuildNearAllTiesIsBuild: when every candidate is as near as every
// other, the tie rule alone picks, and it picks Build's table slot for slot.
func TestBuildNearAllTiesIsBuild(t *testing.T) {
	for _, n := range []int{2, 33, 500} {
		for seed := int64(0); seed < 2; seed++ {
			ids := idSet(n, seed)
			near, plain := freshNodes(ids), freshNodes(ids)
			BuildNear(near, func(i, j int) float64 { return 7 })
			Build(plain)
			sameRings(t, near, plain, "Build")
		}
	}
}

// TestBuildNearKeepsRoots runs one Put/Get workload on a ring built each way
// and asks every key from every source: the peers that store a key (its root
// and the root's replica picks) and the items every lookup returns must not
// depend on which member of a bucket a slot holds. Which of those peers
// answers does: it is the first the route reaches.
func TestBuildNearKeepsRoots(t *testing.T) {
	const n, nkeys = 120, 40
	type result struct {
		answers [][][]any      // [key][src]
		holders [][]p2p.NodeID // [key]
	}
	run := func(build func([]*Node)) result {
		sim := simnet.NewSim()
		nw := simnet.NewNetwork(sim, simnet.ConstantLatency(5*time.Millisecond), rand.New(rand.NewSource(1)))
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = New(nw.AddNode(p2p.NodeID(i*7+3)), nw.Alive)
		}
		build(nodes)
		// Keys repeat; each put settles before the next, so a root's items are
		// in put order however long each put's route was.
		rng := rand.New(rand.NewSource(42))
		keys := make([]ID, nkeys)
		for k := range keys {
			keys[k] = Key(string(rune('A' + rng.Intn(60))))
			nodes[rng.Intn(n)].Put(keys[k], k, 64)
			sim.RunUntilIdle()
		}
		var r result
		for k, key := range keys {
			r.answers = append(r.answers, make([][]any, n))
			var holders []p2p.NodeID
			for _, nd := range nodes {
				if nd.StoredUnder(key) > 0 {
					holders = append(holders, nd.Addr())
				}
			}
			r.holders = append(r.holders, holders)
			for src := range nodes {
				k, src := k, src
				nodes[src].GetSpan(key, 0, p2p.NoNode, 0, time.Second, func(a Answer) {
					if !a.OK || !slices.Contains(holders, a.From) {
						t.Errorf("key %d from node %d: ok=%v, answered by %d, not one of its holders %v", k, src, a.OK, a.From, holders)
					}
					r.answers[k][src] = a.Items
				})
			}
		}
		sim.RunUntilIdle()
		return r
	}
	plain := run(Build)
	near := run(func(nodes []*Node) { BuildNear(nodes, distMatrix(n, 9, 0)) })
	for k := range plain.answers {
		if !slices.Equal(plain.holders[k], near.holders[k]) {
			t.Fatalf("key %d stored on %v, Build stores it on %v", k, near.holders[k], plain.holders[k])
		}
		for src := range plain.answers[k] {
			if p, q := plain.answers[k][src], near.answers[k][src]; !slices.Equal(p, q) {
				t.Fatalf("key %d from node %d: %v, Build gives %v", k, src, q, p)
			}
		}
	}
}

// FuzzBuildNear holds any (size, seed, tie density) ring to the brute-force
// oracle; levels 0 draws continuous distances, k > 0 integers in [0, k).
func FuzzBuildNear(f *testing.F) {
	f.Add(uint16(2), int64(1), uint8(0))
	f.Add(uint16(17), int64(3), uint8(1))
	f.Add(uint16(150), int64(7), uint8(3))
	f.Fuzz(func(t *testing.T, n uint16, seed int64, levels uint8) {
		checkNear(t, int(n%300), seed, int(levels%9))
	})
}
