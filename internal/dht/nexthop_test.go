package dht

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/simnet"
)

// nextHopScan is nextHopExcluding as a scan of every known entry, the
// reference the one-slot first pass is held to. fallback reports that the
// first pass found no entry extending the prefix.
func (n *Node) nextHopScan(key ID, avoid p2p.NodeID) (best Entry, fallback bool) {
	selfPrefix := n.self.ID.CommonPrefix(key)
	best = Entry{Addr: p2p.NoNode}
	bestPrefix := -1
	n.knownEntries(0, func(e Entry) {
		if e.Addr == avoid {
			return
		}
		p := e.ID.CommonPrefix(key)
		if p <= selfPrefix {
			return
		}
		if p > bestPrefix || (p == bestPrefix && Closer(key, e.ID, best.ID)) {
			best, bestPrefix = e, p
		}
	})
	if best.Addr != p2p.NoNode {
		return best, false
	}
	n.knownEntries(0, func(e Entry) {
		if e.Addr == avoid {
			return
		}
		if e.ID.CommonPrefix(key) >= selfPrefix && Closer(key, e.ID, n.self.ID) {
			if best.Addr == p2p.NoNode || Closer(key, e.ID, best.ID) {
				best = e
			}
		}
	})
	return best, true
}

// hopRing is a ring whose liveness oracle reads dead.
type hopRing struct {
	nodes []*Node
	dead  map[p2p.NodeID]bool
}

func newHopRing() *hopRing { return &hopRing{dead: make(map[p2p.NodeID]bool)} }

func (r *hopRing) alive(id p2p.NodeID) bool { return !r.dead[id] }

// builtHopRing is a ring of n nodes wired by Build.
func builtHopRing(n int, seed int64) *hopRing {
	r := newHopRing()
	for _, id := range idSet(n, seed) {
		r.nodes = append(r.nodes, New(&buildHost{id: id}, r.alive))
	}
	Build(r.nodes)
	return r
}

// joinedHopRing grows a ring of n nodes one Join at a time over a simulated
// network, each through a random earlier member.
func joinedHopRing(n int, seed int64) *hopRing {
	r := newHopRing()
	rng := rand.New(rand.NewSource(seed))
	nw := simnet.NewNetwork(simnet.NewSim(), simnet.ConstantLatency(time.Millisecond), rand.New(rand.NewSource(seed)))
	for i := 0; i < n; i++ {
		nd := New(nw.AddNode(p2p.NodeID(i*11+5)), r.alive)
		if i > 0 {
			nd.Join(r.nodes[rng.Intn(i)].Addr())
			nw.Sim().RunUntilIdle()
		}
		r.nodes = append(r.nodes, nd)
	}
	return r
}

// sparseHopRing has every node learn only a few random others through
// AddEntry, so tables are thin and routes often need the fallback pass.
func sparseHopRing(n, known int, seed int64) *hopRing {
	r := newHopRing()
	rng := rand.New(rand.NewSource(seed))
	for _, id := range idSet(n, seed) {
		r.nodes = append(r.nodes, New(&buildHost{id: id}, r.alive))
	}
	for _, nd := range r.nodes {
		for k := 0; k < known; k++ {
			nd.AddEntry(r.nodes[rng.Intn(n)].self)
		}
	}
	return r
}

// hopKeys draws keys that stress the first pass and the fallback: random
// keys, members' own IDs, and midpoints between ring neighbours (of about 60
// members on a large ring).
func hopKeys(nodes []*Node, rng *rand.Rand) []ID {
	var keys []ID
	for i := 0; i < 120; i++ {
		var k ID
		rng.Read(k[:])
		keys = append(keys, k)
	}
	ids := make([]ID, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.self.ID
	}
	slices.SortFunc(ids, ID.Cmp)
	for i := 0; i < len(ids); i += max(1, len(ids)/60) {
		a, b := ids[i].words(), ids[(i+1)%len(ids)].words()
		d := b.sub(a)
		half := u128{d.hi >> 1, d.lo>>1 | d.hi<<63}
		keys = append(keys, ids[i], a.sub(u128{}.sub(half)).id())
	}
	return keys
}

// diffNextHop holds nextHopExcluding to the full scan on about 25 live
// nodes for every key, unexcluded and with two avoid addresses: the scan's
// own pick and a random leaf. It returns how many calls the fallback pass
// answered with an entry.
func diffNextHop(t *testing.T, r *hopRing, rng *rand.Rand) (fallbacks int) {
	t.Helper()
	keys := hopKeys(r.nodes, rng)
	for i := 0; i < len(r.nodes); i += max(1, len(r.nodes)/25) {
		nd := r.nodes[i]
		if r.dead[nd.Addr()] {
			continue
		}
		for _, key := range keys {
			want, fb := nd.nextHopScan(key, p2p.NoNode)
			avoids := []p2p.NodeID{p2p.NoNode, want.Addr}
			if len(nd.leaves) > 0 {
				avoids = append(avoids, nd.leaves[rng.Intn(len(nd.leaves))].Addr)
			}
			for _, avoid := range avoids {
				if avoid != p2p.NoNode {
					want, fb = nd.nextHopScan(key, avoid)
				}
				if got := nd.nextHopExcluding(key, avoid); got != want {
					t.Fatalf("node %d key %s avoid %d: next hop %+v, full scan %+v", i, key, avoid, got, want)
				}
				if fb && want.Addr != p2p.NoNode {
					fallbacks++
				}
			}
		}
	}
	return fallbacks
}

func TestNextHopMatchesFullScan(t *testing.T) {
	rings := map[string]func(seed int64) *hopRing{
		"build-2":   func(seed int64) *hopRing { return builtHopRing(2, seed) },
		"build-17":  func(seed int64) *hopRing { return builtHopRing(17, seed) },
		"build-300": func(seed int64) *hopRing { return builtHopRing(300, seed) },
		"join-60":   func(seed int64) *hopRing { return joinedHopRing(60, seed) },
		"sparse":    func(seed int64) *hopRing { return sparseHopRing(150, 6, seed) },
	}
	for name, mk := range rings {
		t.Run(name, func(t *testing.T) {
			fallbacks := 0
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				r := mk(seed)
				fallbacks += diffNextHop(t, r, rng)
				// Take down about one peer in six and route again.
				for _, nd := range r.nodes[1:] {
					if rng.Intn(6) == 0 {
						r.dead[nd.Addr()] = true
					}
				}
				fallbacks += diffNextHop(t, r, rng)
			}
			if fallbacks == 0 {
				t.Fatal("the fallback pass answered no call")
			}
			t.Logf("the fallback pass answered %d calls", fallbacks)
		})
	}
}
