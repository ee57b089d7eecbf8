package bcp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/registry"
	"repro/internal/service"
)

// sameList reports whether two duplicate lists hold the same components in
// the same order.
func sameList(a, b []*service.Component) bool {
	return slices.EqualFunc(a, b, func(x, y *service.Component) bool { return x.ID == y.ID })
}

// TestSecondProbeCarriesOnlyTheTail: peer 2 hosts the only a, so every
// composition's probe leaves the source for it with b's list. The first
// carries the whole list; the second carries none of its items, only how many
// peer 2 holds; once b's root gains an item and the source's refresh learns
// it, the next carries exactly that item. Every list peer 2 rebuilds is the
// source's, its entry after every round is what the source handed it, and the
// lists on the wire are never written.
func TestSecondProbeCarriesOnlyTheTail(t *testing.T) {
	const header, perHint, perList, perComp = 136, 8, 16, 96
	nw, engines, _ := viewWorld(t, nil,
		chainComp(2, "a", 0, 0), chainComp(4, "b", 0, 0), chainComp(5, "b", 0, 0),
		chainComp(6, "c", 0, 0), chainComp(7, "c", 0, 0))
	src, hop, sim := engines[0], engines[2], nw.Sim()
	hop.Ctr = &obs.NodeCounters{}
	type seen struct {
		lists []List
		base  int
		tail  int
		size  int
		want  List // the source's list as the probe arrived
	}
	var probes []seen
	hop.TapProbes(func(pr *Probe, size int) {
		if len(pr.Lists) != 1 || pr.Lists[0].Fn != "b" {
			t.Fatalf("probe to peer 2 carries %+v, want b's list", pr.Lists)
		}
		l := pr.Lists[0]
		have, _ := hop.Remembered("b")
		want, _ := src.Remembered("b")
		if len(have.Comps) < l.Base || !sameList(append(slices.Clip(have.Comps[:l.Base]), l.Comps...), want.Comps) {
			t.Fatalf("peer 2 holds %d items, is sent %d past the first %d: not the source's %d", len(have.Comps), len(l.Comps), l.Base, len(want.Comps))
		}
		probes = append(probes, seen{lists: pr.Lists, base: l.Base, tail: len(l.Comps), size: size, want: want})
	})
	round := func(id uint64) seen {
		t.Helper()
		n := len(probes)
		startChain(t, engines, id)
		sim.RunUntilIdle()
		if len(probes) != n+1 {
			t.Fatalf("request %d sent peer 2 %d probes, want 1", id, len(probes)-n)
		}
		have, _ := hop.Remembered("b")
		if want := probes[n].want; !sameList(have.Comps, want.Comps) || have.Expires != want.Expires {
			t.Fatalf("after request %d peer 2 holds %d items until %v, the source handed %d until %v",
				id, len(have.Comps), have.Expires, len(want.Comps), want.Expires)
		}
		return probes[n]
	}
	check := func(p seen, id uint64, base, tail int) {
		t.Helper()
		if want := header + 2*perHint + perList + tail*perComp; p.base != base || p.tail != tail || p.size != want {
			t.Fatalf("request %d: probe to peer 2 carries %d items past %d in %d bytes, want %d past %d in %d",
				id, p.tail, p.base, p.size, tail, base, want)
		}
	}

	check(round(1), 1, 0, 2)
	sim.Run(sim.Now() + time.Second)
	check(round(2), 2, 2, 0)

	// b's root gains an item; the source learns it by refreshing its expired
	// list, which the request that starts the refresh is served at once.
	extra := chainComp(8, "b", 0, 0)
	engines[8].local = append(engines[8].local, extra)
	engines[8].reg.Register(extra)
	l, _ := src.Remembered("b")
	sim.Run(l.Expires + time.Second)
	check(round(3), 3, 2, 0)
	check(round(4), 4, 2, 1)
	if p := probes[3]; p.lists[0].Comps[0].ID != extra.ID {
		t.Fatalf("the tail is %v, want %s", p.lists[0].Comps, extra.ID)
	}
	check(round(5), 5, 3, 0)

	for i, p := range probes {
		if p.lists[0].Base != p.base || len(p.lists[0].Comps) != p.tail {
			t.Fatalf("probe %d's list was written after it was sent: %d past %d, sent %d past %d",
				i, len(p.lists[0].Comps), p.lists[0].Base, p.tail, p.base)
		}
	}
	if c := hop.Ctr.Snapshot(); c.DiscCarriedShort != 0 || c.DiscLookups != 0 {
		t.Fatalf("peer 2: %d tails short, %d lookups; want neither", c.DiscCarriedShort, c.DiscLookups)
	}
}

// TestShortHopIgnoresTheTail: the first probe to peer 2, one of a's two
// providers, is lost, so peer 2 never gets the b list the source believes it
// handed. The next request's probe carries no items of it; peer 2 counts the
// tail short, ignores it, looks b up at the peer the hint names, and probes
// on, and the request composes.
func TestShortHopIgnoresTheTail(t *testing.T) {
	nw, engines, mem := viewWorld(t, nil,
		chainComp(2, "a", 0, 0), chainComp(3, "a", 0, 0), chainComp(4, "b", 0, 0),
		chainComp(5, "b", 0, 0), chainComp(6, "c", 0, 0), chainComp(7, "c", 0, 0))
	src, hop, sim := engines[0], engines[2], nw.Sim()
	hop.Ctr = &obs.NodeCounters{}
	var got []Probe
	hop.host.Handle(MsgProbe, func(n p2p.Node, msg p2p.Message) {
		if got = append(got, *msg.Payload.(*Probe)); len(got) > 1 {
			hop.onProbe(n, msg)
		}
	})
	startChain(t, engines, 1)
	sim.RunUntilIdle()
	if _, ok := hop.Remembered("b"); len(got) != 1 || ok {
		t.Fatalf("peer 2 got %d probes and holds b's list %v: want one, lost", len(got), ok)
	}
	sim.Run(sim.Now() + time.Second)
	from := len(mem.Events())
	took := startChain(t, engines, 2)
	sim.RunUntilIdle()
	if *took < 0 || len(got) != 2 {
		t.Fatalf("request 2 composed %v; peer 2 got %d probes in all", *took >= 0, len(got))
	}
	want, _ := src.Remembered("b")
	if l := got[1].Lists; len(l) != 1 || l[0].Base != len(want.Comps) || len(l[0].Comps) != 0 {
		t.Fatalf("the second probe to peer 2 carries %+v, want no items past %d", l, len(want.Comps))
	}
	c := hop.Ctr.Snapshot()
	if c.DiscCarriedShort != 1 || c.DiscLookups != 1 || c.DiscHinted != 1 || c.DiscCarried != 0 {
		t.Fatalf("peer 2: %d short, %d lookups, %d hinted, %d installed; want 1, 1, 1, 0",
			c.DiscCarriedShort, c.DiscLookups, c.DiscHinted, c.DiscCarried)
	}
	forwarded := slices.ContainsFunc(mem.Events()[from:], func(ev obs.Event) bool {
		return ev.Kind == obs.KindProbeForwarded && ev.Node == 2 && ev.Fn == "b"
	})
	if have, _ := hop.Remembered("b"); !forwarded || !sameList(have.Comps, want.Comps) {
		t.Fatalf("peer 2 probed b %v, and looked up %d items; the source holds %d", forwarded, len(have.Comps), len(want.Comps))
	}
}

// TestHandRestartsWhenTheListChanges: a source hands a peer only what it lacks
// of the list it was handed, per peer and function; a list answered by another
// peer, or shorter than what was handed, goes whole, and a function nobody
// answered goes not at all.
func TestHandRestartsWhenTheListChanges(t *testing.T) {
	_, engines := discoveryRing(2)
	e, g := engines[0], fgraph.Linear("a", "b", "c")
	comps := []*service.Component{{ID: "b@1"}, {ID: "b@2"}, {ID: "b@3"}}
	for i, step := range []struct {
		peer, root      p2p.NodeID
		items           int
		wantBase, wantN int
	}{
		{peer: 5, root: 7, items: 2, wantBase: 0, wantN: 2},
		{peer: 5, root: 7, items: 2, wantBase: 2, wantN: 0},
		{peer: 6, root: 7, items: 2, wantBase: 0, wantN: 2},
		{peer: 5, root: 7, items: 3, wantBase: 2, wantN: 1},
		{peer: 5, root: 8, items: 3, wantBase: 0, wantN: 3},
		{peer: 5, root: 8, items: 1, wantBase: 0, wantN: 1},
		{peer: 5, root: 8, items: 1, wantBase: 1, wantN: 0},
	} {
		table := []List{{Fn: "b", Listing: registry.Listing{Comps: comps[:step.items], Root: step.root}}}
		got := e.hand(nil, step.peer, g, []int{1, 2}, table)
		if len(got) != 1 || got[0].Fn != "b" || got[0].Base != step.wantBase || !sameList(got[0].Comps, comps[step.wantBase:step.items]) {
			t.Fatalf("step %d: %d items from %d handed to %d: got %+v, want the %d past %d",
				i, step.items, step.root, step.peer, got, step.wantN, step.wantBase)
		}
	}
}
