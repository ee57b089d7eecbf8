package dht

import (
	"sort"

	"repro/internal/p2p"
)

// Build wires a set of freshly created nodes into a consistent ring from
// global knowledge, the static construction experiments use instead of serial
// joins. It produces bit-identical leaf sets and routing tables to the legacy
// all-pairs construction (kept as BuildLegacy in build_test.go, the oracle of
// the differential harness)
// in O(n·log n) instead of O(n²):
//
//   - Entries are sorted once by identifier. Because circular distance is
//     monotone along each direction of the sorted ring, a node's LeafSize
//     closest neighbors are always among its LeafSize predecessors and
//     LeafSize successors in sorted order, so each leaf set is selected from
//     a 2·LeafSize window instead of all n entries.
//   - Routing-table rows are filled by recursively partitioning the sorted
//     entries into per-prefix digit buckets. Two nodes share exactly the
//     prefix at which their buckets diverge, and the legacy builder's
//     first-write-wins AddEntry semantics reduce to "the entry with the
//     smallest nodes-slice index in each sibling bucket", which one scan per
//     bucket computes for all of the bucket's nodes at once.
//
// Build assumes the nodes are fresh (no prior entries) and all alive, which
// is how every call site uses it: static construction happens before any
// traffic or failure injection. Dynamic membership still goes through
// Join/AddEntry.
func Build(nodes []*Node) {
	n := len(nodes)
	if n < 2 {
		return
	}
	entries := make([]Entry, n)
	for i, nd := range nodes {
		entries[i] = nd.self
	}
	// Sort positions by identifier; ties (duplicate IDs) keep nodes-slice
	// order so the construction below reproduces the legacy insertion order.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if c := entries[ia].ID.Cmp(entries[ib].ID); c != 0 {
			return c < 0
		}
		return ia < ib
	})
	pos := make([]int32, n) // pos[i] = sorted position of nodes[i]
	for p, i := range order {
		pos[i] = int32(p)
	}
	buildLeaves(nodes, entries, order, pos)
	fillTables(nodes, entries, order, 0, n, 0)
}

type leafCand struct {
	dist ID
	idx  int32
}

// buildLeaves fills every node's leaf set from its 2·LeafSize sorted-ring
// neighbors. Distances to self are precomputed once per candidate: sorting 32
// candidates with live Dist calls in the comparator would dominate the whole
// build at 100k nodes.
func buildLeaves(nodes []*Node, entries []Entry, order, pos []int32) {
	n := len(nodes)
	cands := make([]leafCand, 0, 2*LeafSize)
	for i, nd := range nodes {
		self := entries[i].ID
		cands = cands[:0]
		if n-1 <= 2*LeafSize {
			for _, j := range order {
				if int(j) != i {
					cands = append(cands, leafCand{Dist(entries[j].ID, self), j})
				}
			}
		} else {
			p := int(pos[i])
			for k := 1; k <= LeafSize; k++ {
				jp := order[(p-k+n)%n]
				js := order[(p+k)%n]
				cands = append(cands,
					leafCand{Dist(entries[jp].ID, self), jp},
					leafCand{Dist(entries[js].ID, self), js})
			}
		}
		// Order by the same total order the legacy leaf insertion used:
		// circular distance, then numeric identifier, then (for duplicate
		// identifiers) nodes-slice insertion order.
		sort.Slice(cands, func(a, b int) bool {
			ca, cb := cands[a], cands[b]
			if c := ca.dist.Cmp(cb.dist); c != 0 {
				return c < 0
			}
			if c := entries[ca.idx].ID.Cmp(entries[cb.idx].ID); c != 0 {
				return c < 0
			}
			return ca.idx < cb.idx
		})
		k := LeafSize
		if k > len(cands) {
			k = len(cands)
		}
		nd.leaves = make([]Entry, k)
		for t := 0; t < k; t++ {
			nd.leaves[t] = entries[cands[t].idx]
		}
	}
}

// fillTables populates routing-table row `depth` for every node in the
// ID-sorted range order[lo:hi], which by induction shares its first `depth`
// digits. Within the range the digit at `depth` is non-decreasing (higher
// digits are equal, so the sort ordered by this digit first), so the digit
// buckets are contiguous and one scan finds both their bounds and each
// bucket's minimum nodes-slice index — the entry the legacy first-write-wins
// AddEntry would have left in the slot.
func fillTables(nodes []*Node, entries []Entry, order []int32, lo, hi, depth int) {
	if hi-lo < 2 || depth >= NumDigits {
		return
	}
	var bounds [17]int
	var minIdx [16]int32
	for d := range minIdx {
		minIdx[d] = -1
	}
	b := lo
	for d := 0; d < 16; d++ {
		bounds[d] = b
		for b < hi && entries[order[b]].ID.Digit(depth) == d {
			if minIdx[d] == -1 || order[b] < minIdx[d] {
				minIdx[d] = order[b]
			}
			b++
		}
	}
	bounds[16] = hi
	for d := 0; d < 16; d++ {
		if bounds[d+1] == bounds[d] {
			continue
		}
		// Every node in bucket d shares exactly `depth` digits with every
		// node in each sibling bucket d2, so its row[depth][d2] slot gets the
		// sibling bucket's minimum-index entry. The row is only allocated
		// when a sibling bucket exists, matching the lazy allocation the
		// incremental AddEntry path performs.
		for j := bounds[d]; j < bounds[d+1]; j++ {
			nd := nodes[order[j]]
			var row *tableRow
			for d2 := 0; d2 < 16; d2++ {
				if d2 == d || minIdx[d2] == -1 {
					continue
				}
				if row == nil {
					row = nd.tableRow(depth)
				}
				row[d2] = entries[minIdx[d2]]
			}
		}
		if bounds[d+1]-bounds[d] >= 2 {
			fillTables(nodes, entries, order, bounds[d], bounds[d+1], depth+1)
		}
	}
}

// tableSlot reads one routing-table slot without allocating the row: empty
// slots (including wholly unallocated rows) read as Addr == NoNode. The
// differential tests use it to compare tables structurally.
func (n *Node) tableSlot(row, col int) Entry {
	if n.rows == nil || n.rows[row] == nil {
		return Entry{Addr: p2p.NoNode}
	}
	return n.rows[row][col]
}
