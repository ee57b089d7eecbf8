package bcp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// startChain starts request id, a→b→c from peer 0 to peer 1, which releases
// what it committed when it is done; the request's duration is written to
// *took then.
func startChain(t *testing.T, engines []*Engine, id uint64) *time.Duration {
	t.Helper()
	host := engines[0].host
	req := &service.Request{ID: id, FGraph: fgraph.Linear("a", "b", "c"), QoSReq: qos.Unbounded(),
		Bandwidth: 100, Source: 0, Dest: 1, Budget: 8}
	req.QoSReq[qos.Delay] = 5000
	req.Res[qos.CPU], req.Res[qos.Memory] = 1, 10
	start, took := host.Now(), new(time.Duration)
	*took = -1
	engines[0].Compose(req, func(r Result) {
		if !r.Ok {
			t.Fatalf("request %d failed", id)
		}
		*took = host.Now() - start
		engines[0].Teardown(r.Best)
	})
	return took
}

// TestExpiredListAnswersAtOnce: a source whose lists expired composes in the
// same virtual time as one whose lists are fresh. It sends exactly one refresh
// per list, to the peer that answered it last, which answers with what is new
// (nothing); a resolution that arrives while the refreshes are out sends no
// lookup; and each entry's expiry moves once its refresh returns.
func TestExpiredListAnswersAtOnce(t *testing.T) {
	nw, engines, _ := viewWorld(t, nil,
		chainComp(2, "a", 0, 0), chainComp(3, "a", 0, 0), chainComp(4, "b", 0, 0),
		chainComp(5, "b", 0, 0), chainComp(6, "c", 0, 0), chainComp(7, "c", 0, 0))
	e, fns := engines[0], []string{"a", "b", "c"}
	e.Ctr = &obs.NodeCounters{}
	e.reg.DHT().Ctr = e.Ctr
	sim := nw.Sim()

	startChain(t, engines, 1)
	sim.RunUntilIdle()
	sim.Run(sim.Now() + time.Second)
	fresh := startChain(t, engines, 2)
	sim.RunUntilIdle()

	var old []List
	expired := time.Duration(0)
	for _, fn := range fns {
		l, _ := e.Remembered(fn)
		old, expired = append(old, l), max(expired, l.Expires)
	}
	sim.Run(expired + time.Second)
	before, start := e.Ctr.Snapshot(), sim.Now()
	took := startChain(t, engines, 3)
	c := e.Ctr.Snapshot()
	if c.DiscStale-before.DiscStale != 3 || c.DiscLookups-before.DiscLookups != 3 || c.DiscHinted-before.DiscHinted != 3 {
		t.Fatalf("composing on 3 expired lists: %d stale, %d lookups, %d hinted; want one hinted refresh each",
			c.DiscStale-before.DiscStale, c.DiscLookups-before.DiscLookups, c.DiscHinted-before.DiscHinted)
	}
	served := false
	e.discover(fns, 0, func(tb []List, ok bool) {
		served = ok && slices.EqualFunc(tb, old, func(a, b List) bool { return a.Expires == b.Expires && a.Root == b.Root })
	})
	if again := e.Ctr.Snapshot(); !served || again.DiscLookups != c.DiscLookups {
		t.Fatalf("during the refreshes: served the expired lists at once %v, %d more lookups", served, again.DiscLookups-c.DiscLookups)
	}
	sim.RunUntilIdle()

	if *took < 0 || *took != *fresh {
		t.Fatalf("composing took %v on expired lists and %v on fresh ones", *took, *fresh)
	}
	if d := e.Ctr.Snapshot().DiscDelta - before.DiscDelta; d != 3 {
		t.Fatalf("%d of 3 refreshes answered as a delta by the peer that answered last", d)
	}
	for i, fn := range fns {
		l, _ := e.Remembered(fn)
		if l.Expires <= start || l.Root != old[i].Root || len(l.Comps) != len(old[i].Comps) {
			t.Fatalf("%q after its refresh: %d components from peer %d until %v; was %d from peer %d, refreshed at %v",
				fn, len(l.Comps), l.Root, l.Expires, len(old[i].Comps), old[i].Root, start)
		}
	}
}

// TestFailedRefreshKeepsTheList: a peer cut off from the ring resolves a
// function whose list expired. It is served that list at once, its refresh
// times out, the list stays, and the next resolution refreshes it again.
func TestFailedRefreshKeepsTheList(t *testing.T) {
	nw, engines := discoveryRing(50)
	engines[1].reg.Register(service.Component{ID: "c/a", Function: "a", Peer: 1})
	sim := nw.Sim()
	sim.RunUntilIdle()
	e := engines[0]
	e.Ctr = &obs.NodeCounters{}
	mem := &obs.MemSink{}
	e.reg.DHT().Trace = mem
	e.discover([]string{"a"}, 0, func([]List, bool) {})
	sim.RunUntilIdle()
	old, ok := e.Remembered("a")
	if !ok || len(old.Comps) != 1 {
		t.Fatalf("the cold lookup cached %v (%v)", old, ok)
	}

	sim.Run(old.Expires + time.Second)
	var others []p2p.NodeID
	for _, o := range engines[1:] {
		others = append(others, o.host.ID())
	}
	silence(nw, others)
	var got []List
	served := false
	e.discover([]string{"a"}, 0, func(tb []List, ok bool) {
		got, served = slices.Clone(tb), ok
	})
	if !served || got[0].Expires != old.Expires || len(got[0].Comps) != 1 {
		t.Fatalf("cut off with an expired list: served at once %v with %v; want the expired list", served, got)
	}
	sim.Run(sim.Now() + discoveryTimeout)
	if l, _ := e.Remembered("a"); l.Expires != old.Expires || len(l.Comps) != 1 {
		t.Fatalf("%v after the refresh's first timeout: %v, want the old list kept", discoveryTimeout, l)
	}
	sim.RunUntilIdle()
	failed := slices.ContainsFunc(mem.Events(), func(ev obs.Event) bool { return ev.Kind == obs.KindDHTGetFail })
	if l, _ := e.Remembered("a"); !failed || l.Expires != old.Expires || len(l.Comps) != 1 {
		t.Fatalf("refresh failed %v; then held %v, want the old list kept", failed, l)
	}
	e.discover([]string{"a"}, 0, func([]List, bool) {})
	if c := e.Ctr.Snapshot(); c.DiscStale != 2 {
		t.Fatalf("%d refreshes after the first one failed and the list was asked for again, want 2", c.DiscStale)
	}
}
