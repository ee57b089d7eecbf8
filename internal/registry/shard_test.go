package registry

import (
	"fmt"
	"testing"

	"repro/internal/p2p"
)

func TestShardPlanContiguousAndComplete(t *testing.T) {
	for _, tc := range []struct{ n, s int }{{10, 1}, {10, 4}, {64, 16}, {7, 3}, {5, 9}} {
		p := NewShardPlan(tc.n, tc.s)
		wantShards := tc.s
		if wantShards > tc.n {
			wantShards = tc.n
		}
		if p.NumShards != wantShards {
			t.Fatalf("n=%d s=%d: NumShards=%d, want %d", tc.n, tc.s, p.NumShards, wantShards)
		}
		next := 0
		for s, members := range p.Members {
			if len(members) == 0 {
				t.Fatalf("n=%d s=%d: shard %d empty", tc.n, tc.s, s)
			}
			for _, id := range members {
				if int(id) != next {
					t.Fatalf("n=%d s=%d: members not contiguous at %d (got %d)", tc.n, tc.s, next, id)
				}
				if p.Of(id) != s {
					t.Fatalf("Of(%d)=%d, want %d", id, p.Of(id), s)
				}
				next++
			}
		}
		if next != tc.n {
			t.Fatalf("n=%d s=%d: plan covers %d peers", tc.n, tc.s, next)
		}
	}
}

func TestShardPlanHomeDeterministicAndSpread(t *testing.T) {
	p := NewShardPlan(160, 16)
	q := NewShardPlan(160, 16)
	used := make(map[int]bool)
	for i := 0; i < 200; i++ {
		key := FunctionKey(fmt.Sprintf("fn%d", i))
		h := p.Home(key)
		if h < 0 || h >= p.NumShards {
			t.Fatalf("home %d out of range", h)
		}
		if q.Home(key) != h {
			t.Fatal("identical plans disagree on a key's home")
		}
		used[h] = true
		es := p.Entries(key)
		if len(es) != 2 || es[0] == es[1] {
			t.Fatalf("entries for key %d: %v", i, es)
		}
		for _, e := range es {
			if p.Of(e) != h {
				t.Fatalf("entry %d not a member of home shard %d", e, h)
			}
		}
		f := q.Entries(key)
		if es[0] != f[0] || es[1] != f[1] {
			t.Fatal("identical plans disagree on entry members")
		}
	}
	// 200 function keys over 16 shards: every shard should home something.
	if len(used) != p.NumShards {
		t.Fatalf("only %d of %d shards homed any of 200 keys — hash badly skewed", len(used), p.NumShards)
	}
}

func TestShardPlanSingleMemberEntries(t *testing.T) {
	p := NewShardPlan(3, 3)
	for i := 0; i < 20; i++ {
		es := p.Entries(FunctionKey(fmt.Sprintf("fn%d", i)))
		if len(es) != 1 {
			t.Fatalf("single-member shard returned %d entries", len(es))
		}
	}
}

func TestShardPlanOneShardHomesEverythingLocally(t *testing.T) {
	p := NewShardPlan(40, 1)
	for i := 0; i < 50; i++ {
		if p.Home(FunctionKey(fmt.Sprintf("fn%d", i))) != 0 {
			t.Fatal("single-shard plan homed a key off shard 0")
		}
	}
	for i := 0; i < 40; i++ {
		if p.Of(p2p.NodeID(i)) != 0 {
			t.Fatal("single-shard plan put a peer off shard 0")
		}
	}
}
