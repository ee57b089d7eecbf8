package registry

import (
	"fmt"

	"repro/internal/dht"
	"repro/internal/p2p"
)

// ShardPlan splits an unfederated deployment's peers into S independent DHT
// rings — the contiguous p2p.Blocks, one ring per block — and homes every
// discovery key on exactly one of them. It generalizes the federation
// per-domain keyspace shards to deployments with no administrative
// boundaries: each ring carries O(peers/S) membership state and
// O(services/S) stored meta-data. (The static ring build is O(n·log n) —
// dht.Build's sorted-ring construction — so sharding carries no build-time
// savings; it is the knob that bounds per-ring state and localizes
// maintenance traffic.)
//
// Homing is by key hash, not by registering peer: all duplicates of a
// function land in the same ring (on the same root) no matter who registers
// them, so a single lookup still returns the full duplicate list and shard
// count cannot change lookup results.
type ShardPlan struct {
	p2p.Blocks // Members[s] is shard s's ring; Of(peer) its shard
	NumShards  int
}

// NewShardPlan splits peers 0..n-1 into shards rings. shards is clamped to
// [1, n].
func NewShardPlan(n, shards int) *ShardPlan {
	if n < 1 {
		panic(fmt.Sprintf("registry: shard plan over %d peers", n))
	}
	shards = max(1, min(shards, n))
	return &ShardPlan{Blocks: p2p.NewBlocks(n, shards), NumShards: shards}
}

// Home returns the shard whose ring stores the given key: an FNV-1a hash of
// the key bytes mod the shard count. Purely a function of (key, NumShards),
// so every peer agrees on a key's home without coordination.
func (p *ShardPlan) Home(key dht.ID) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(p.NumShards))
}

// Entries returns the deterministic entry members of key's home ring, in
// retry order: a foreign peer's put enters through the first, and a lookup
// that times out on the first retries through the second. The pair is spread
// over the ring by the same key hash that homes the key, so entry load
// distributes across members while staying identical across runs and worker
// counts.
func (p *ShardPlan) Entries(key dht.ID) []p2p.NodeID {
	members := p.Members[p.Home(key)]
	h := 0
	for _, b := range key {
		h = h*31 + int(b)
	}
	if h < 0 {
		h = -h
	}
	i := h % len(members)
	if len(members) == 1 {
		return []p2p.NodeID{members[i]}
	}
	return []p2p.NodeID{members[i], members[(i+1)%len(members)]}
}
