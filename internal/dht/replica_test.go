package dht

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/p2p"
	"repro/internal/service"
	"repro/internal/simnet"
)

// ranksAbove reports whether routing toward key prefers a to b: a shares a
// longer prefix with key, or as long a one and is closer.
func ranksAbove(key, a, b ID) bool {
	pa, pb := a.CommonPrefix(key), b.CommonPrefix(key)
	return pa > pb || pa == pb && Closer(key, a, b)
}

// rootOf returns the live node no other ranks above for key: the peer a put
// of key reaches.
func rootOf(nw *simnet.Network, nodes []*Node, key ID) *Node {
	var root *Node
	for _, nd := range nodes {
		if nw.Alive(nd.Addr()) && (root == nil || ranksAbove(key, nd.Self(), root.Self())) {
			root = nd
		}
	}
	return root
}

// keyJoinDisplaces finds a key whose root keeps the key when joiner joins the
// ring but gains joiner among its first Replicas leaves, and returns it with
// that root and the leaf joiner pushes out of the replica pick.
func keyJoinDisplaces(t *testing.T, nw *simnet.Network, nodes []*Node, joiner *Node) (ID, *Node, *Node) {
	t.Helper()
	byAddr := make(map[p2p.NodeID]*Node, len(nodes))
	for _, nd := range nodes {
		byAddr[nd.Addr()] = nd
	}
	for i := 0; i < 10000; i++ {
		key := Key(fmt.Sprintf("joined-%d", i))
		root := rootOf(nw, nodes, key)
		last := root.leaves[Replicas-1]
		if ranksAbove(key, root.Self(), joiner.Self()) && Closer(root.Self(), joiner.Self(), last.ID) {
			return key, root, byAddr[last.Addr]
		}
	}
	t.Fatal("no key whose replica pick the joiner enters")
	return ID{}, nil, nil
}

// TestHoldersAnswerWithTheRootsItems: a get is answered by the first peer on
// its route that holds a copy of the key it can vouch for, so every lookup must
// still return exactly the items the key's root holds. Providers put after
// the ring settled, a join enters a root's replica pick ahead of one of its
// leaves, and a replica is down across a put; once the root has re-picked,
// every live peer's lookup of every key, routed or hinted, returns exactly the
// root's items, and the copies that answered were up to date.
func TestHoldersAnswerWithTheRootsItems(t *testing.T) {
	const n = 200
	nw, nodes := ring(t, n)
	joiner := New(nw.AddNode(n), nw.Alive)
	key, root, displaced := keyJoinDisplaces(t, nw, nodes, joiner)
	rng := rand.New(rand.NewSource(5))
	put := func(k ID, item string) {
		nodes[rng.Intn(n)].Put(k, item, ItemSize)
		nw.Sim().RunUntilIdle()
	}
	// Keys the joiner would become the root of are left out: a joiner takes
	// over no items, so it answers them empty until their next put.
	keys := []ID{key}
	for i := 0; len(keys) < 31; i++ {
		if k := Key(fmt.Sprintf("late-%d", i)); ranksAbove(k, rootOf(nw, nodes, k).Self(), joiner.Self()) {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		for r := 0; r < 3; r++ {
			put(k, fmt.Sprintf("meta-%d.%d", i, r))
		}
	}

	// The joiner enters the root's leaf set ahead of its last replica; the
	// next put hands the joiner the whole list and tells that replica to stop.
	joiner.Join(nodes[0].Addr())
	nw.Sim().RunUntilIdle()
	put(key, "after-join")
	if !joiner.vouches(key) || displaced.vouches(key) || joiner.StoredUnder(key) != 4 {
		t.Fatalf("after the join: joiner answers %v with %d items, displaced replica %d answers %v",
			joiner.vouches(key), joiner.StoredUnder(key), displaced.Addr(), displaced.vouches(key))
	}
	nodes = append(nodes, joiner)

	// A replica down across a put misses it and the notice to stop answering.
	// Back up, it answers from its stale copy until the root re-picks.
	pick := root.picks[key]
	down := nodes[slices.IndexFunc(nodes, func(nd *Node) bool {
		return nd != joiner && slices.Contains(pick[:], nd.Addr())
	})]
	nw.Fail(down.Addr())
	put(key, "while-down")
	nw.Recover(down.Addr())
	if stale := getVia(t, nw, down, key, p2p.NoNode); stale.from != down.Addr() || len(stale.items) != 4 {
		t.Fatalf("the replica back from its outage answered %+v: want its own 4 of the root's 5 items", stale)
	}
	getVia(t, nw, root, key, p2p.NoNode) // the root's own answer re-picks

	for _, k := range keys {
		want := rootOf(nw, nodes, k).store[k]
		for _, src := range nodes {
			routed := getVia(t, nw, src, k, p2p.NoNode)
			hinted := getVia(t, nw, src, k, nodes[rng.Intn(len(nodes))].Addr())
			for _, got := range []lookup{routed, hinted} {
				if !got.ok || !slices.Equal(got.items, want) {
					t.Fatalf("key %v from %d: %v (ok=%v) answered by %d, the root holds %v", k, src.Addr(), got.items, got.ok, got.from, want)
				}
			}
		}
	}
}

// TestStaleAnswersNeedAPeerThatWasDown measures what vouching leaves: on a
// ring where a tenth of the peers at most are down at once and providers keep
// putting, a lookup compared with the current root's items answers without one
// of them only when the peer that answered was down across a put (it missed
// the item, and the root's notice to stop answering). A holder whose root is
// down, or no longer the key's root, routes on instead of answering, and a
// root that missed items while down passes on what its holders send it. On
// seeds 1 and 9, 1 of 587 and 1 of 564 answers given before the root (0.2 %)
// were stale. With holders vouching while their root is down or displaced, 5
// of 617 and 1 of 719 were, on seed 1 from peers never down; with a root
// keeping what it gains that way to itself, 4 of 599 on seed 9.
func TestStaleAnswersNeedAPeerThatWasDown(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		staleAnswers(t, seed)
	}
}

func staleAnswers(t *testing.T, seed int64) {
	const n = 200
	nw, nodes := ring(t, n)
	rng := rand.New(rand.NewSource(seed))
	keys := make([]ID, 20)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("churn-%d", i))
	}
	live := func() *Node {
		for {
			if nd := nodes[rng.Intn(n)]; nw.Alive(nd.Addr()) {
				return nd
			}
		}
	}
	puts := 0
	put := func() {
		live().Put(keys[rng.Intn(len(keys))], fmt.Sprintf("meta-%d", puts), ItemSize)
		puts++
		nw.Sim().RunUntilIdle()
	}
	for range 2 * len(keys) {
		put()
	}
	wasDown := make(map[p2p.NodeID]bool)
	var down []p2p.NodeID
	lookups, early, stale := 0, 0, 0
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(20); {
		case r == 0 && len(down) < n/10:
			nd := live()
			nw.Fail(nd.Addr())
			down, wasDown[nd.Addr()] = append(down, nd.Addr()), true
		case r == 1 && len(down) > 0:
			i := rng.Intn(len(down))
			nw.Recover(down[i])
			down = slices.Delete(down, i, i+1)
		case r < 5:
			put()
		default:
			k := keys[rng.Intn(len(keys))]
			root := rootOf(nw, nodes, k)
			got := getVia(t, nw, live(), k, p2p.NoNode)
			lookups++
			if got.from == root.Addr() {
				continue
			}
			early++
			if slices.ContainsFunc(root.store[k], func(it any) bool { return !slices.Contains(got.items, it) }) {
				stale++
				if !wasDown[got.from] {
					t.Errorf("seed %d: peer %d, never down, answered %d items without one of the root's %d", seed, got.from, len(got.items), root.StoredUnder(k))
				}
			}
		}
	}
	t.Logf("seed %d: %d puts, %d lookups, %d answered early, %d of them without one of the root's items", seed, puts, lookups, early, stale)
	if early < lookups/10 || stale == 0 {
		t.Fatalf("seed %d exercised too little: %d lookups, %d answered early, %d stale", seed, lookups, early, stale)
	}
}

// TestHolderWithAGapRoutesOn: a copy that arrived out of order — the root's
// second new item before its first — is short of the count the root sent with
// it, so its holder routes gets on until the missing item arrives.
func TestHolderWithAGapRoutesOn(t *testing.T) {
	nw, nodes := ring(t, 100)
	key := Key("gap-fn")
	nodes[3].Put(key, "meta-0", ItemSize)
	nw.Sim().RunUntilIdle()
	i := slices.IndexFunc(nodes, func(nd *Node) bool { return nd.vouches(key) })
	if i < 0 {
		t.Fatal("no holder answers for the key")
	}
	holder := nodes[i]
	root := holder.claims[key].root
	copyFrom := func(item string, count int) {
		holder.onReplica(nil, p2p.Message{From: root, Payload: ReplicaMsg{Key: key, Items: []any{item}, Count: count}})
	}
	copyFrom("meta-2", 3)
	if got := getVia(t, nw, holder, key, p2p.NoNode); got.from == holder.Addr() {
		t.Fatalf("the holder answered from 2 of the root's 3 items: %+v", got)
	}
	copyFrom("meta-1", 2)
	if got := getVia(t, nw, holder, key, p2p.NoNode); got.from != holder.Addr() || len(got.items) != 3 {
		t.Fatalf("the holder with all 3 items did not answer them: %+v", got)
	}
}

// gobCopy round-trips rm through encoding/gob, as tcpnet carries it: every
// *service.Component item decodes to a fresh record.
func gobCopy(t *testing.T, rm ReplicaMsg) ReplicaMsg {
	t.Helper()
	var buf bytes.Buffer
	var got ReplicaMsg
	if err := gob.NewEncoder(&buf).Encode(rm); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	return got
}

// componentRing is a ring whose key "fn:gob" holds three component records,
// put from different peers and settled.
func componentRing(t *testing.T) (*simnet.Network, []*Node, ID) {
	gob.Register(&service.Component{})
	nw, nodes := ring(t, 60)
	key := Key("fn:gob")
	for i := 0; i < 3; i++ {
		nodes[i*7].Put(key, &service.Component{ID: fmt.Sprintf("p%d/gob.0", i*7), Function: "gob", Peer: p2p.NodeID(i * 7)}, ItemSize)
	}
	nw.Sim().RunUntilIdle()
	return nw, nodes, key
}

// TestDecodedCopiesMergeOnce: over a real transport each ReplicaMsg decodes
// to fresh records, none pointer-equal to what the holder has. A holder that is
// a root of the key too (it took a put as its root) copies on whatever a merge
// adds, so a merge by pointer would send the list back and forth between two
// roots without end. The same copy, gob-decoded twice, must leave the store as
// it was and send nothing.
func TestDecodedCopiesMergeOnce(t *testing.T) {
	nw, nodes, key := componentRing(t)
	root := rootOf(nw, nodes, key)
	i := slices.IndexFunc(nodes, func(nd *Node) bool { return nd != root && nd.vouches(key) })
	if i < 0 {
		t.Fatal("no holder answers for the key")
	}
	holder := nodes[i]
	holder.replicate(key, 0) // the holder becomes a root of the key as well
	nw.Sim().RunUntilIdle()
	if _, isRoot := holder.picks[key]; !isRoot {
		t.Fatal("the holder picked no replicas")
	}
	want := slices.Clone(holder.store[key])
	sent := nw.Stats().MessagesSent
	full := ReplicaMsg{Key: key, Items: slices.Clip(root.store[key]), Count: root.StoredUnder(key)}
	for range 2 {
		rm := gobCopy(t, full)
		if c, ok := rm.Items[0].(*service.Component); !ok || c == root.store[key][0] {
			t.Fatalf("the decoded item is %T, not a fresh *service.Component", rm.Items[0])
		}
		holder.onReplica(nil, p2p.Message{From: root.Addr(), Payload: rm})
		nw.Sim().RunUntilIdle()
	}
	if !slices.Equal(holder.store[key], want) {
		t.Fatalf("two decoded copies of the root's %d items left the holder's store at %d items, want its %d", len(full.Items), len(holder.store[key]), len(want))
	}
	if n := nw.Stats().MessagesSent - sent; n != 0 {
		t.Fatalf("merging copies it already held sent %d messages", n)
	}
	t.Logf("holder %d merged 2 decoded copies of %d items: store stays %d, 0 messages", holder.Addr(), len(full.Items), len(want))
}

// TestReRegisteredRecordHeldOnce: a component registered again with the same
// ID, as after a rejoin, is stored twice at the root, and each replica holds
// it once, as the first record it was sent.
func TestReRegisteredRecordHeldOnce(t *testing.T) {
	nw, nodes, key := componentRing(t)
	root := rootOf(nw, nodes, key)
	first := root.store[key][0].(*service.Component)
	again := *first
	nodes[0].Put(key, &again, ItemSize)
	nw.Sim().RunUntilIdle()
	if got := root.StoredUnder(key); got != 4 {
		t.Fatalf("the root stores %d items, want 4 (the re-registration appended)", got)
	}
	picks := root.picks[key]
	if len(picks) == 0 {
		t.Fatal("the root picked no replicas")
	}
	for _, id := range picks {
		if st := nodes[id].store[key]; len(st) != 3 || st[0] != any(first) {
			t.Fatalf("replica %d holds %d items (first %v), want 3 with the first record first", id, len(st), st[0])
		}
	}
	t.Logf("root holds 4 items with %s twice; each of its %d replicas holds 3, the first record first", first.ID, len(picks))
}
