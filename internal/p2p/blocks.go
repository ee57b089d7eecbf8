package p2p

// Blocks is the one partition of a deployment's peers into rings: peers
// 0..n-1 split into contiguous ID blocks whose sizes differ by at most one,
// the remainder going to the lower-numbered blocks. registry.ShardPlan and
// federation.DomainPlan are both built from it — a block is one DHT ring —
// and add only what is their own on top.
type Blocks struct {
	// Members lists each block's peers, in ascending node-ID order.
	Members [][]NodeID
	owner   []int // peer index -> block
}

// NewBlocks splits peers 0..n-1 into k blocks; it needs 1 <= k <= n.
// Deterministic given (n, k).
func NewBlocks(n, k int) Blocks {
	b := Blocks{Members: make([][]NodeID, k), owner: make([]int, n)}
	next := 0
	for blk := range b.Members {
		size := n / k
		if blk < n%k {
			size++
		}
		members := make([]NodeID, size)
		for i := range members {
			members[i] = NodeID(next)
			b.owner[next] = blk
			next++
		}
		b.Members[blk] = members
	}
	return b
}

// Of returns the block holding peer id, -1 if the id is outside the
// partitioned peer set.
func (b Blocks) Of(id NodeID) int {
	if i := int(id); i >= 0 && i < len(b.owner) {
		return b.owner[i]
	}
	return -1
}
