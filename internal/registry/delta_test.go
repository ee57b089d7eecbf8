package registry

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/service"
	"repro/internal/simnet"
)

// discoverBoth issues, in one instant and over one route, a lookup by an asker
// that holds known and one by an asker that holds nothing of known.Root's.
func discoverBoth(t *testing.T, nw *simnet.Network, r *Registry, known Listing) (held, bare Listing) {
	t.Helper()
	answers := 0
	ask := func(k Listing, out *Listing) {
		discover(r, "f", k, 200*time.Millisecond, func(l Listing, ok bool) {
			if !ok {
				t.Fatalf("lookup holding %d of peer %d's items failed", k.Held, k.Root)
			}
			*out = l
			answers++
		})
	}
	ask(known, &held)
	ask(Listing{Root: known.Root}, &bare)
	nw.Sim().Run(nw.Sim().Now() + time.Second)
	if answers != 2 {
		t.Fatalf("%d of 2 lookups answered", answers)
	}
	return held, bare
}

// TestDeltaDiscoverEqualsFullDiscover: over random interleavings of
// registrations (a third of them an ID already stored), replica pushes still
// in flight and lookups against one function, an asker that only ever fetches
// what its remembered peer gained holds, after every lookup, the very list an
// asker fetching everything is sent — same components, same order — also when
// the remembered peer is down and a replica answers, when the first attempt is
// lost and the retry re-routes, and when the asker claims more items (and
// other components) than the responder has.
func TestDeltaDiscoverEqualsFullDiscover(t *testing.T) {
	const n = 40
	compared, sameRoot, replica, retried, forged := 0, 0, 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		nw, regs := cluster(t, n)
		rng := rand.New(rand.NewSource(seed))
		regs[0].Register(mkComp(0, "f", 0))
		nw.Sim().RunUntilIdle()
		first, _ := discoverBoth(t, nw, regs[1], Listing{Root: p2p.NoNode})
		asker := regs[(int(first.Root)+1)%n] // anyone but the root
		known, down := Listing{Root: p2p.NoNode}, p2p.NoNode
		for step := 0; step < 80; step++ {
			nw.SetFaults(simnet.FaultPlan{})
			switch op := rng.Intn(12); {
			case op < 6:
				idx := rng.Intn(45)
				regs[rng.Intn(n)].Register(mkComp(idx%n, "f", idx))
			case op == 6 && down == p2p.NoNode && known.Root != p2p.NoNode:
				down = known.Root
				nw.Fail(down)
				replica++
			case op == 7 && down != p2p.NoNode:
				nw.Recover(down)
				down = p2p.NoNode
			case op == 8 && known.Held > 0:
				known.Held += 1000
				claim := mkComp(99, "f", 99)
				known.Comps = []*service.Component{&claim}
				forged++
			case op == 9 && known.Root != p2p.NoNode:
				nw.SetFaults(simnet.FaultPlan{Seed: seed, Links: map[[2]p2p.NodeID]simnet.LinkFaults{
					{asker.DHT().Addr(), known.Root}: {Loss: 1}}})
				retried++
			}
			// Part of the way only: the root's replica pushes are still out.
			nw.Sim().Run(nw.Sim().Now() + time.Duration(rng.Intn(8))*time.Millisecond)
			got, want := discoverBoth(t, nw, asker, known)
			if got.Root != want.Root || got.Held != want.Held {
				known = want // a put slipped between the two gets: nothing to compare
				continue
			}
			compared++
			if known.Root == got.Root {
				sameRoot++
			}
			ids := func(l Listing) []string {
				var out []string
				for _, c := range l.Comps {
					out = append(out, c.ID)
				}
				return out
			}
			if !slices.Equal(ids(got), ids(want)) {
				t.Fatalf("seed %d step %d: holding %d items of peer %d, answered by %d:\n got %v\nwant %v",
					seed, step, known.Held, known.Root, got.Root, ids(got), ids(want))
			}
			seen := map[string]bool{}
			for _, id := range ids(got) {
				if seen[id] {
					t.Fatalf("seed %d step %d: component %s listed twice", seed, step, id)
				}
				seen[id] = true
			}
			known = got
		}
	}
	if compared < 800 || sameRoot < 400 || replica < 10 || retried < 10 || forged < 10 {
		t.Fatalf("%d lookups compared, %d answered by the remembered peer, %d root failures, %d lost first attempts, %d forged claims: the run exercised too little",
			compared, sameRoot, replica, retried, forged)
	}
}

// TestDeltaDiscoverSendsOnlyWhatIsNew pins the wire: asking the remembered
// peer costs 8 bytes more on the request, and the answer is charged for the
// components the asker lacks — none at all when nothing was registered since.
func TestDeltaDiscoverSendsOnlyWhatIsNew(t *testing.T) {
	nw, regs := cluster(t, 40)
	for i := 0; i < 5; i++ {
		regs[i].Register(mkComp(i, "f", i))
	}
	nw.Sim().RunUntilIdle()
	first, _ := discoverBoth(t, nw, regs[11], Listing{Root: p2p.NoNode})
	asker := regs[(int(first.Root)+1)%40]
	wire := func(known Listing) (Listing, int64) {
		before := nw.Stats().BytesSent
		var out Listing
		discover(asker, "f", known, time.Second, func(l Listing, _ bool) { out = l })
		nw.Sim().RunUntilIdle()
		return out, nw.Stats().BytesSent - before
	}
	full, fullBytes := wire(Listing{Root: first.Root})
	same, sameBytes := wire(full)
	if want := int64(64 + 16 + 64 + 5*96); fullBytes != want || len(full.Comps) != 5 || full.Held != 5 {
		t.Fatalf("a full answer of 5 components: %d bytes, %d components, %d held; want %d bytes", fullBytes, len(full.Comps), full.Held, want)
	}
	if want := int64(64 + 24 + 64); sameBytes != want || len(same.Comps) != 5 || same.Held != 5 {
		t.Fatalf("nothing new: %d bytes, %d components, %d held; want %d bytes and the list kept", sameBytes, len(same.Comps), same.Held, want)
	}
	regs[20].Register(mkComp(20, "f", 20))
	regs[21].Register(mkComp(0, "f", 0)) // an ID the asker already lists
	nw.Sim().RunUntilIdle()
	before := nw.Stats().BytesSent
	grown, bare := discoverBoth(t, nw, asker, same)
	if got, want := nw.Stats().BytesSent-before, int64(64+24+64+2*96)+fullBytes+2*96; got != want {
		t.Fatalf("two items new: delta and full lookup together cost %d bytes, want %d", got, want)
	}
	if len(grown.Comps) != 6 || grown.Held != 7 || fmt.Sprint(grown) != fmt.Sprint(bare) {
		t.Fatalf("after two registrations, one of a listed ID:\ndelta %v\n full %v", grown, bare)
	}
}
