package dht

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/simnet"
)

// BuildLegacy is the original O(n²) all-pairs construction: every node learns
// every other node's entry through AddEntry, which keeps only the relevant
// leaf and table slots. It is the reference implementation the differential
// tests certify Build against.
func BuildLegacy(nodes []*Node) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddEntry(b.self)
			}
		}
	}
}

// buildHost is a minimal transport stub for construction-only tests: Build
// never sends, schedules, or randomizes, so only ID and Handle matter. Using
// it keeps the differential and speedup tests free of simulator overhead.
type buildHost struct{ id p2p.NodeID }

func (h *buildHost) ID() p2p.NodeID                        { return h.id }
func (h *buildHost) Now() time.Duration                    { return 0 }
func (h *buildHost) Send(p2p.Message)                      {}
func (h *buildHost) After(time.Duration, func()) p2p.Timer { return p2p.Timer{} }
func (h *buildHost) Rand() *rand.Rand                      { return nil }
func (h *buildHost) Handle(string, p2p.Handler)            {}

// freshNodes creates construction-only nodes for the given transport IDs.
func freshNodes(ids []p2p.NodeID) []*Node {
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nodes[i] = New(&buildHost{id: id}, nil)
	}
	return nodes
}

// idSet derives n transport IDs from a seed: sequential for even seeds,
// sparse-random (federated rings hand dht non-contiguous NodeIDs) for odd
// ones.
func idSet(n int, seed int64) []p2p.NodeID {
	ids := make([]p2p.NodeID, n)
	if seed%2 == 0 {
		for i := range ids {
			ids[i] = p2p.NodeID(int(seed)*1000 + i)
		}
		return ids
	}
	rng := rand.New(rand.NewSource(seed))
	used := make(map[p2p.NodeID]bool, n)
	for i := range ids {
		for {
			id := p2p.NodeID(rng.Intn(1 << 30))
			if !used[id] {
				used[id] = true
				ids[i] = id
				break
			}
		}
	}
	return ids
}

// diffRings fails the test when the sorted-ring construction and the legacy
// all-pairs construction disagree on any leaf set or routing-table slot.
func diffRings(t testing.TB, ids []p2p.NodeID) {
	t.Helper()
	fast := freshNodes(ids)
	slow := freshNodes(ids)
	Build(fast)
	BuildLegacy(slow)
	sameRings(t, fast, slow, "legacy")
}

// sameRings fails the test unless got and want hold the same leaf sets and
// routing-table slots, node for node.
func sameRings(t testing.TB, got, want []*Node, what string) {
	t.Helper()
	for i := range got {
		f, s := got[i], want[i]
		if len(f.leaves) != len(s.leaves) {
			t.Fatalf("node %d: leaf count %d != %s %d", i, len(f.leaves), what, len(s.leaves))
		}
		for j := range f.leaves {
			if f.leaves[j] != s.leaves[j] {
				t.Fatalf("node %d leaf %d: %+v != %s %+v", i, j, f.leaves[j], what, s.leaves[j])
			}
		}
		for row := 0; row < NumDigits; row++ {
			for col := 0; col < 16; col++ {
				if g, w := f.tableSlot(row, col), s.tableSlot(row, col); g != w {
					t.Fatalf("node %d table[%d][%d]: %+v != %s %+v", i, row, col, g, what, w)
				}
			}
		}
	}
}

func TestBuildMatchesLegacy(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 16, 17, 33, 64, 200, 500} {
		for seed := int64(0); seed < 4; seed++ {
			diffRings(t, idSet(n, seed))
		}
	}
}

// FuzzDiffBuild is the fuzzing face of the same differential property: any
// (size, seed) pair must produce identical rings under both constructions.
func FuzzDiffBuild(f *testing.F) {
	f.Add(uint16(2), int64(1))
	f.Add(uint16(17), int64(3))
	f.Add(uint16(40), int64(0))
	f.Add(uint16(150), int64(7))
	f.Fuzz(func(t *testing.T, n uint16, seed int64) {
		size := int(n % 300)
		diffRings(t, idSet(size, seed))
	})
}

// arcNodes makes n nodes whose identifiers lie in `arcs` narrow arcs spread
// evenly around the ring, set directly (FromNode never clusters them). With
// every member close together a node near an arc's end finds its far-side
// window past the antipode, where distance falls again.
func arcNodes(n, arcs int, seed int64) []*Node {
	rng := rand.New(rand.NewSource(seed))
	nodes := freshNodes(idSet(n, seed))
	for i, nd := range nodes {
		nd.self.ID = u128{uint64(i%arcs)*(^uint64(0)/uint64(arcs)) + rng.Uint64()>>40, rng.Uint64()}.id()
	}
	return nodes
}

// TestBuildMatchesLegacyOnArcs diffs Build against BuildLegacy on clustered
// identifiers: on one arc leaf windows cross the antipode, so a window's
// sides are not in distance order; on several a window spans the gaps.
func TestBuildMatchesLegacyOnArcs(t *testing.T) {
	for _, n := range []int{34, 60, 200} {
		for _, arcs := range []int{1, 2, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				fast, slow := arcNodes(n, arcs, seed), arcNodes(n, arcs, seed)
				if arcs == 1 && crossed(fast) == 0 {
					t.Fatalf("n=%d: no leaf window crosses the antipode", n)
				}
				Build(fast)
				BuildLegacy(slow)
				sameRings(t, fast, slow, "legacy")
			}
		}
	}
}

// TestBuildPanicsOnDuplicateIDs: two nodes sharing a ring identifier are a
// caller's bug, and both builders refuse them with one line naming the two
// addresses and the identifier, wherever the pair sits in the nodes slice.
func TestBuildPanicsOnDuplicateIDs(t *testing.T) {
	for _, c := range []struct{ n, first, second int }{{2, 0, 1}, {40, 3, 31}, {40, 38, 0}} {
		nodes := freshNodes(idSet(c.n, 1))
		nodes[c.second].self.ID = nodes[c.first].self.ID
		lo, hi := min(c.first, c.second), max(c.first, c.second)
		want := fmt.Sprintf("dht: nodes %d and %d share ring identifier %v", nodes[lo].self.Addr, nodes[hi].self.Addr, nodes[lo].self.ID)
		for name, build := range map[string]func([]*Node){
			"Build":     Build,
			"BuildNear": func(nodes []*Node) { BuildNear(nodes, func(i, j int) float64 { return float64(i ^ j) }) },
		} {
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s with nodes %d and %d sharing an ID: panic %v, want %q", name, c.first, c.second, got, want)
					}
				}()
				build(nodes)
			}()
		}
	}
}

// crossed counts the nodes whose LeafSize predecessors in sorted order do not
// grow steadily farther away.
func crossed(nodes []*Node) (count int) {
	ids := make([]ID, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.self.ID
	}
	slices.SortFunc(ids, ID.Cmp)
	n := len(ids)
	for p, self := range ids {
		for k := 1; k < LeafSize; k++ {
			if Dist(ids[(p-k-1+n)%n], self).Less(Dist(ids[(p-k+n)%n], self)) {
				count++
				break
			}
		}
	}
	return count
}

// TestBuildAnyWorkerCount builds the same rings at GOMAXPROCS 1 and 2, plain
// and with a distance table: the fan-out must not change a slot.
func TestBuildAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{2, 40, 1000} {
		ids := idSet(n, 5)
		dist := distMatrix(n, 5, 3)
		var plain, near [2][]*Node
		for w := range plain {
			runtime.GOMAXPROCS(w + 1)
			plain[w], near[w] = freshNodes(ids), freshNodes(ids)
			Build(plain[w])
			BuildNear(near[w], dist)
		}
		sameRings(t, plain[1], plain[0], "GOMAXPROCS 1")
		sameRings(t, near[1], near[0], "GOMAXPROCS 1")
	}
}

// TestBuildPutGetMatchesLegacy runs the same Put/Get workload over two
// simulated rings — one built each way — and requires identical results,
// including hop counts: the strongest observable signal that routing state is
// bit-identical.
func TestBuildPutGetMatchesLegacy(t *testing.T) {
	type result struct {
		items []any
		hops  int
		ok    bool
	}
	run := func(build func([]*Node)) []result {
		sim := simnet.NewSim()
		nw := simnet.NewNetwork(sim, simnet.ConstantLatency(5*time.Millisecond), rand.New(rand.NewSource(1)))
		nodes := make([]*Node, 120)
		for i := range nodes {
			nodes[i] = New(nw.AddNode(p2p.NodeID(i*7+3)), nw.Alive)
		}
		build(nodes)
		rng := rand.New(rand.NewSource(42))
		keys := make([]ID, 40)
		for i := range keys {
			keys[i] = Key(string(rune('A' + rng.Intn(60))))
			nodes[rng.Intn(len(nodes))].Put(keys[i], i, 64)
		}
		sim.RunUntilIdle()
		results := make([]result, len(keys))
		for i, key := range keys {
			i := i
			nodes[rng.Intn(len(nodes))].Get(key, time.Second, func(items []any, hops int, ok bool) {
				results[i] = result{items: items, hops: hops, ok: ok}
			})
		}
		sim.RunUntilIdle()
		return results
	}
	fast := run(Build)
	slow := run(BuildLegacy)
	for i := range fast {
		f, s := fast[i], slow[i]
		if f.ok != s.ok || f.hops != s.hops || len(f.items) != len(s.items) {
			t.Fatalf("lookup %d: (ok=%v hops=%d n=%d) != legacy (ok=%v hops=%d n=%d)",
				i, f.ok, f.hops, len(f.items), s.ok, s.hops, len(s.items))
		}
		for j := range f.items {
			if f.items[j] != s.items[j] {
				t.Fatalf("lookup %d item %d: %v != legacy %v", i, j, f.items[j], s.items[j])
			}
		}
	}
}

// TestBuildSpeedup asserts the sorted-ring construction beats the all-pairs
// builder by the ISSUE's 50× floor. Measured at 1k nodes, where the legacy
// build is still fast enough to time; the gap only widens with n (the
// benchmarks extrapolate to 100k).
func TestBuildSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ids := idSet(1000, 1)
	fast := freshNodes(ids)
	slow := freshNodes(ids)

	start := time.Now()
	Build(fast)
	fastDur := time.Since(start)

	start = time.Now()
	BuildLegacy(slow)
	slowDur := time.Since(start)

	t.Logf("build=%v legacy=%v ratio=%.0fx", fastDur, slowDur, float64(slowDur)/float64(fastDur))
	if slowDur < 50*fastDur {
		t.Fatalf("Build only %.1fx faster than BuildLegacy (want >= 50x): %v vs %v",
			float64(slowDur)/float64(fastDur), fastDur, slowDur)
	}
}
