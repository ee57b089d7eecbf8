package dht

import (
	"cmp"
	"slices"

	"repro/internal/par"
)

// Build wires a set of freshly created nodes into a consistent ring from
// global knowledge, the static construction experiments use instead of serial
// joins. It is BuildNear with no distance: every candidate ties, so each slot
// takes its bucket's smallest nodes-slice index, bit-identical to the legacy
// all-pairs construction (kept as BuildLegacy in build_test.go, the oracle of
// the differential harness). Rings without a latency matrix (the compact
// capacity worlds) are built this way.
func Build(nodes []*Node) { BuildNear(nodes, nil) }

// BuildNear is Build with Pastry's proximity neighbour selection: routing-table
// slot (row, digit) of each node holds the member of that sibling bucket
// nearest the node by dist (over nodes-slice indices), ties to the smallest
// index. A nil dist ties every candidate. Leaf sets, and with them every key's
// root, do not depend on dist. The work is O(n·log n) plus ≈ 1.07·n² dist
// reads when dist is set:
//
//   - Identifiers are packed once into two machine words each and sorted.
//     Because circular distance is monotone along each direction of the
//     sorted ring, a node's LeafSize closest neighbors are always among its
//     LeafSize predecessors and LeafSize successors in sorted order, so each
//     leaf set is ranked from a 2·LeafSize window of precomputed word
//     distances instead of all n entries.
//   - Routing-table rows are filled by recursively partitioning the sorted
//     entries into per-prefix digit buckets. Two nodes share exactly the
//     prefix at which their buckets diverge, so a node's slot for a sibling
//     bucket is chosen from that bucket alone: by one scan of the bucket per
//     node, or, with every candidate tied, the bucket's smallest index for all
//     of its siblings' nodes at once (the legacy builder's first-write-wins
//     AddEntry result).
//
// Leaf sets, and the 16 top-level buckets' tables, write disjoint nodes and
// fan out over GOMAXPROCS, so dist is called from several goroutines at once
// and must be safe for that; the ring is the same at any worker count.
//
// BuildNear assumes the nodes are fresh (no prior entries) and all alive,
// which is how every call site uses it: static construction happens before
// any traffic or failure injection. Dynamic membership still goes through
// Join/AddEntry, whose slots are first-write-wins, not proximity-chosen.
func BuildNear(nodes []*Node, dist func(i, j int) float64) {
	n := len(nodes)
	if n < 2 {
		return
	}
	b := ringBuild{nodes: nodes, ring: make([]ringKey, n), dist: dist}
	for i, nd := range nodes {
		b.ring[i] = ringKey{nd.self.ID.words(), int32(i)}
	}
	// Ties (duplicate IDs) keep nodes-slice order so the construction below
	// reproduces the legacy insertion order.
	slices.SortFunc(b.ring, func(x, y ringKey) int {
		if c := x.key.cmp(y.key); c != 0 {
			return c
		}
		return cmp.Compare(x.idx, y.idx)
	})
	par.FanOut(n, func() func(int) {
		cands := make([]leafCand, 0, 2*LeafSize)
		return func(p int) { b.leaves(p, cands) }
	})
	bounds, minIdx := b.buckets(0, n, 0)
	par.FanOut(16, func() func(int) {
		return func(d int) { b.fillBucket(&bounds, &minIdx, d, 0) }
	})
}

// ringBuild is one BuildNear: the nodes and their identifier words sorted by
// (identifier, nodes-slice index) into the ring.
type ringBuild struct {
	nodes []*Node
	ring  []ringKey
	dist  func(i, j int) float64
}

type ringKey struct {
	key u128
	idx int32 // in nodes
}

// leafCand is a leaf-set candidate: its circular distance to the node and
// its ring position, which orders equal distances by (ID, nodes-slice index).
type leafCand struct {
	dist u128
	pos  int32
}

// leafOrder is the total order the legacy leaf insertion used: circular
// distance, then numeric identifier, then (for duplicate identifiers)
// nodes-slice insertion order.
func leafOrder(a, b leafCand) int {
	if c := a.dist.cmp(b.dist); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// leaves fills the leaf set of the node at ring position p from its
// 2·LeafSize ring neighbors. Walking away from the node, each side's
// distances grow until the side crosses the antipode, so the sides are
// usually in leafOrder already and a merge of the two ranks the window; a
// side that is not (it crosses, or holds duplicate identifiers) sorts it.
func (b *ringBuild) leaves(p int, cands []leafCand) {
	n := len(b.ring)
	self := b.ring[p].key
	cands = cands[:0]
	if n-1 <= 2*LeafSize {
		for q, r := range b.ring {
			if q != p {
				cands = append(cands, leafCand{circDist(r.key, self), int32(q)})
			}
		}
		slices.SortFunc(cands, leafOrder)
	} else {
		for j := 1; j <= 2*LeafSize; j++ {
			q := (p - j + n) % n // predecessors first, then successors
			if j > LeafSize {
				q = (p + j - LeafSize) % n
			}
			cands = append(cands, leafCand{circDist(b.ring[q].key, self), int32(q)})
		}
		pred, succ := cands[:LeafSize], cands[LeafSize:]
		if !slices.IsSortedFunc(pred, leafOrder) || !slices.IsSortedFunc(succ, leafOrder) {
			slices.SortFunc(cands, leafOrder)
		} else {
			// Neither side runs dry: before the last of LeafSize picks, at
			// most LeafSize−1 came from either.
			var merged [LeafSize]leafCand
			for t := range merged {
				if leafOrder(pred[0], succ[0]) < 0 {
					merged[t], pred = pred[0], pred[1:]
				} else {
					merged[t], succ = succ[0], succ[1:]
				}
			}
			cands = merged[:]
		}
	}
	leaves := make([]Entry, min(LeafSize, len(cands)))
	for t := range leaves {
		leaves[t] = b.nodes[b.ring[cands[t].pos].idx].self
	}
	b.nodes[b.ring[p].idx].leaves = leaves
}

// fillTables populates routing-table row `depth` for every node in the ring
// range [lo, hi), which by induction shares its first `depth` digits.
func (b *ringBuild) fillTables(lo, hi, depth int) {
	if hi-lo < 2 || depth >= NumDigits {
		return
	}
	bounds, minIdx := b.buckets(lo, hi, depth)
	for d := 0; d < 16; d++ {
		b.fillBucket(&bounds, &minIdx, d, depth)
	}
}

// buckets splits the ring range [lo, hi), whose members share their first
// `depth` digits, by the digit at `depth`. That digit is non-decreasing
// along the range (higher digits are equal, so the sort ordered by this digit
// first), so the digit buckets are contiguous and one scan finds both their
// bounds and each bucket's minimum nodes-slice index (-1 when empty) — the
// pick when every candidate ties.
func (b *ringBuild) buckets(lo, hi, depth int) (bounds [17]int, minIdx [16]int32) {
	for d := range minIdx {
		minIdx[d] = -1
	}
	j := lo
	for d := 0; d < 16; d++ {
		bounds[d] = j
		for ; j < hi && b.ring[j].key.digit(depth) == d; j++ {
			if minIdx[d] == -1 || b.ring[j].idx < minIdx[d] {
				minIdx[d] = b.ring[j].idx
			}
		}
	}
	bounds[16] = hi
	return bounds, minIdx
}

// fillBucket fills row `depth` of bucket d's nodes and recurses into it.
// Every node in bucket d shares exactly `depth` digits with every node in
// each sibling bucket d2, so its row[depth][d2] slot gets the sibling
// bucket's member nearest to it. The row is only allocated when a sibling
// bucket exists, matching the lazy allocation the incremental AddEntry path
// performs.
func (b *ringBuild) fillBucket(bounds *[17]int, minIdx *[16]int32, d, depth int) {
	for j := bounds[d]; j < bounds[d+1]; j++ {
		i := b.ring[j].idx
		var row *tableRow
		for d2 := 0; d2 < 16; d2++ {
			if d2 == d || minIdx[d2] == -1 {
				continue
			}
			if row == nil {
				row = b.nodes[i].tableRow(depth)
			}
			pick := minIdx[d2]
			if b.dist != nil {
				pick = nearest(i, b.ring[bounds[d2]:bounds[d2+1]], b.dist)
			}
			row[d2] = b.nodes[pick].self
		}
	}
	b.fillTables(bounds[d], bounds[d+1], depth+1)
}

// nearest returns the member of bucket nearest node i by dist, ties to the
// smallest nodes-slice index.
func nearest(i int32, bucket []ringKey, dist func(i, j int) float64) int32 {
	best, bestD := int32(-1), 0.0
	for _, r := range bucket {
		if d := dist(int(i), int(r.idx)); best == -1 || d < bestD || (d == bestD && r.idx < best) {
			best, bestD = r.idx, d
		}
	}
	return best
}
