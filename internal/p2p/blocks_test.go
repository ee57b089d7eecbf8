package p2p

import (
	"reflect"
	"testing"
)

// The two block loops the repo carried before Blocks replaced them, copied
// here as the reference: federation's Spec.Plan (remainder to the low blocks)
// and registry's NewShardPlan (proportional cut points).
func oldDomainPlanBlocks(peers, d int) [][]NodeID {
	var out [][]NodeID
	base, rem := peers/d, peers%d
	next := 0
	for dom := 0; dom < d; dom++ {
		size := base
		if dom < rem {
			size++
		}
		members := make([]NodeID, size)
		for i := range members {
			members[i] = NodeID(next)
			next++
		}
		out = append(out, members)
	}
	return out
}

func oldShardPlanBlocks(n, shards int) [][]NodeID {
	var out [][]NodeID
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		block := make([]NodeID, 0, hi-lo)
		for i := lo; i < hi; i++ {
			block = append(block, NodeID(i))
		}
		out = append(out, block)
	}
	return out
}

// TestBlocksPartitionProperties: for every peer count up to 200 and every
// block count it admits, the blocks are contiguous, cover 0..n-1 exactly
// once, differ in size by at most one and agree with Of; they equal the old
// DomainPlan blocks always, and the old ShardPlan blocks whenever k divides n
// — the only case a production shard count ever hit.
func TestBlocksPartitionProperties(t *testing.T) {
	for n := 1; n <= 200; n++ {
		for k := 1; k <= n; k++ {
			b := NewBlocks(n, k)
			next, minSize, maxSize := 0, n, 0
			for blk, members := range b.Members {
				minSize, maxSize = min(minSize, len(members)), max(maxSize, len(members))
				for _, id := range members {
					if int(id) != next || b.Of(id) != blk {
						t.Fatalf("n=%d k=%d: block %d holds %d (Of says %d) where %d is next", n, k, blk, id, b.Of(id), next)
					}
					next++
				}
			}
			if len(b.Members) != k || next != n || maxSize-minSize > 1 {
				t.Fatalf("n=%d k=%d: %d blocks of %d..%d peers cover %d", n, k, len(b.Members), minSize, maxSize, next)
			}
			if b.Of(-1) != -1 || b.Of(NodeID(n)) != -1 {
				t.Fatalf("n=%d k=%d: Of outside the peer set is not -1", n, k)
			}
			if want := oldDomainPlanBlocks(n, k); !reflect.DeepEqual(b.Members, want) {
				t.Fatalf("n=%d k=%d: blocks %v, the DomainPlan split was %v", n, k, b.Members, want)
			}
			if want := oldShardPlanBlocks(n, k); n%k == 0 && !reflect.DeepEqual(b.Members, want) {
				t.Fatalf("n=%d k=%d: blocks %v, the ShardPlan split was %v", n, k, b.Members, want)
			}
		}
	}
}
