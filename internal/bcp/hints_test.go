package bcp_test

import (
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/registry"
	"repro/internal/service"
)

// hopLookups returns the routed hop count of every discovery lookup request
// req's probes caused at intermediate peers: the get deliveries traced after
// the source's discovery phase closed.
func hopLookups(events []obs.Event, req uint64) []int {
	var hops []int
	discovered := false
	for _, ev := range events {
		switch {
		case ev.Req != req:
		case ev.Kind == obs.KindDiscDone:
			discovered = true
		case discovered && ev.Kind == obs.KindDHTDeliver && ev.Note == "get":
			hops = append(hops, ev.Hops)
		}
	}
	return hops
}

func mean(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// composeChain composes a 3-function chain on a fresh 60-peer cluster with
// tap installed on every engine and returns the outcome and the trace.
func composeChain(t *testing.T, tap func(pr *bcp.Probe, size int)) (bcp.Result, []obs.Event) {
	t.Helper()
	mem := &obs.MemSink{}
	c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Trace: mem})
	for _, p := range c.Peers {
		p.Engine.TapProbes(tap)
	}
	res := compose(c, req3(c, 1, 24))
	if !res.Ok {
		t.Fatal("composition failed")
	}
	return res, mem.Events()
}

// TestHopLookupsGoStraightToTheRoot: a probe leaving the source carries the
// list of its target's one successor (16 bytes and 96 a component, what the
// get response it spares is charged) and no other probe carries any, so the
// first hops look nothing up; every lookup a probe causes at a later hop is
// handed to the peer that answered the source — one routed message, none
// when the hop is that peer — and the probes pay 8 bytes per hint they
// carry, for the functions still ahead of their target only. Stripping the
// hints changes how far the lookups travel and nothing about the outcome.
func TestHopLookupsGoStraightToTheRoot(t *testing.T) {
	const base, perHop, perHint = 136, 64, 8 // the size model before hints + 8 B a hint
	const perList, perComp = 16, 96
	probes, carried := 0, 0
	res, events := composeChain(t, func(pr *bcp.Probe, size int) {
		probes++
		ahead := pr.Pattern.NumFunctions() - 1 - len(pr.Visited) // chain: functions after the target
		if len(pr.Hints) != ahead {
			t.Errorf("probe for function %d after %d hops carries %d hints, want %d", pr.CurFn, len(pr.Visited), len(pr.Hints), ahead)
		}
		for _, h := range pr.Hints {
			if h.Fn <= pr.CurFn {
				t.Errorf("probe for function %d carries a hint for function %d", pr.CurFn, h.Fn)
			}
		}
		want := base + perHop*len(pr.Visited) + perHint*ahead
		if len(pr.Visited) == 0 {
			next := pr.Pattern.Function(pr.CurFn + 1)
			if len(pr.Lists) != 1 || pr.Lists[0].Fn != next || len(pr.Lists[0].Comps) == 0 || pr.Lists[0].Held < len(pr.Lists[0].Comps) {
				t.Fatalf("probe leaving the source for function %d carries %+v, want the list of %q", pr.CurFn, pr.Lists, next)
			}
			want += perList + perComp*len(pr.Lists[0].Comps)
			carried++
		} else if len(pr.Lists) != 0 {
			t.Errorf("probe for function %d after %d hops carries %d lists", pr.CurFn, len(pr.Visited), len(pr.Lists))
		}
		if size != want {
			t.Errorf("probe for function %d after %d hops is %d bytes on the wire, want %d", pr.CurFn, len(pr.Visited), size, want)
		}
	})
	if probes == 0 || carried == 0 {
		t.Fatalf("the tap saw %d probes, %d of them from the source", probes, carried)
	}
	reports := 0
	for _, ev := range events {
		if ev.Kind == obs.KindProbeReturned {
			reports++
			if want := base + perHop*ev.Hops; ev.Bytes != want {
				t.Errorf("a %d-hop report is %d bytes, want %d: a report carries no hints", ev.Hops, ev.Bytes, want)
			}
		}
	}
	hinted := hopLookups(events, 1)
	if reports == 0 || len(hinted) == 0 {
		t.Fatalf("%d reports, %d hop lookups: the run exercised nothing", reports, len(hinted))
	}
	// The peers bound for the chain's middle function are the only ones with
	// anything to look up, and each sends one get however many probes reach it.
	middle, lookers := res.Best.Pattern.Function(1), map[p2p.NodeID]bool{}
	for _, ev := range events {
		if (ev.Kind == obs.KindProbeSent || ev.Kind == obs.KindProbeForwarded) && ev.Fn == middle {
			lookers[ev.Peer] = true
		}
	}
	if len(hinted) > len(lookers) {
		t.Fatalf("%d hop lookups by the %d peers past the first hop: a carried list was looked up again", len(hinted), len(lookers))
	}
	for _, h := range hinted {
		if h > 1 {
			t.Fatalf("a hinted hop lookup was routed over %d hops: %v", h, hinted)
		}
	}

	bare, bareEvents := composeChain(t, func(pr *bcp.Probe, _ int) { pr.Hints = nil })
	if unhinted := hopLookups(bareEvents, 1); len(unhinted) != len(hinted) || mean(unhinted) <= 1.5 {
		t.Fatalf("with hints stripped: %d hop lookups at %.2f hops; with hints %d at %.2f",
			len(unhinted), mean(unhinted), len(hinted), mean(hinted))
	}
	if !sameComponents(res.Best, bare.Best) {
		t.Fatalf("hints changed the selected graph:\n%v\n%v", res.Best, bare.Best)
	}
}

// discoverThenLaunch finds the bystander that answers lookups of req's last
// function, starts composing req and runs until the source has its lists and
// its probes are on their way, and returns that peer.
func discoverThenLaunch(t *testing.T, c *cluster.Cluster, mem *obs.MemSink, req *service.Request, cb func(bcp.Result)) p2p.NodeID {
	t.Helper()
	last := req.FGraph.Function(req.FGraph.NumFunctions() - 1)
	root := p2p.NoNode
	c.Peers[0].Registry.DiscoverSpan(last, 0, registry.Listing{Root: p2p.NoNode}, time.Second, func(l registry.Listing, _ int, _ bool) {
		root = l.Root
	})
	c.Sim.Run(c.Sim.Now() + 5*time.Second)
	if root == p2p.NoNode || root == req.Source || root == req.Dest {
		t.Fatalf("root of %q is %d: want a bystander", last, root)
	}
	c.Peers[int(req.Source)].Engine.Compose(req, cb)
	discovered := func() bool {
		for _, ev := range mem.Events() {
			if ev.Kind == obs.KindDiscDone && ev.Req == req.ID {
				return true
			}
		}
		return false
	}
	for !discovered() {
		c.Sim.Run(c.Sim.Now() + time.Millisecond)
	}
	return root
}

func sameComponents(a, b *service.Graph) bool {
	if len(a.Comps) != len(b.Comps) {
		return false
	}
	for fn, s := range a.Comps {
		if b.Comps[fn].Comp.ID != s.Comp.ID {
			return false
		}
	}
	return true
}

// TestDeadHintRoutesLikeNoHint: the peer that answered the source's lookup of
// the chain's last function crashes before any hop looks that function up.
// The hops see it is down, route as if unhinted, a replica answers, and no
// lookup waits for a timeout. Nor does one half a minute later, when every
// list has expired and the replicas remembered as having answered are down as
// well: naming a dead peer as the holder of one's first items is naming nobody.
func TestDeadHintRoutesLikeNoHint(t *testing.T) {
	mem := &obs.MemSink{}
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Trace: mem, Obs: reg})
	req := req3(c, 1, 24)
	last := req.FGraph.Function(2)
	var res bcp.Result
	done := false
	root := discoverThenLaunch(t, c, mem, req, func(r bcp.Result) { res, done = r, true })
	c.Net.Fail(root)
	c.Sim.Run(c.Sim.Now() + 60*time.Second)

	if !done || !res.Ok {
		t.Fatalf("composition done=%v ok=%v after the hinted root failed", done, res.Ok)
	}
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindDHTGetRetry || ev.Kind == obs.KindDHTGetFail {
			t.Fatalf("a lookup waited out its timeout at peer %d", ev.Node)
		}
	}
	if tot := reg.Totals(); tot.DiscHinted == 0 || len(hopLookups(mem.Events(), req.ID)) == 0 {
		t.Fatalf("%d hinted lookups, hop lookups %v: the run exercised nothing", tot.DiscHinted, hopLookups(mem.Events(), req.ID))
	}

	whole, _ := c.Peers[0].Engine.Remembered(last)
	dead := map[p2p.NodeID]bool{root: true}
	for _, p := range c.Peers {
		if l, ok := p.Engine.Remembered(last); ok && !dead[l.Root] && l.Root != req.Source && l.Root != req.Dest {
			dead[l.Root] = true
			c.Net.Fail(l.Root)
		}
	}
	expired := c.Sim.Now()
	if len(dead) < 2 || whole.Expires > expired {
		t.Fatalf("%d remembered peers down, the source's list good until %v at %v: want a replica down and the list expired", len(dead), whole.Expires, expired)
	}
	if res := compose(c, req3(c, 2, 24)); !res.Ok {
		t.Fatal("composition failed after the remembered peers did")
	}
	refreshed := 0
	for id, p := range c.Peers {
		l, ok := p.Engine.Remembered(last)
		if !ok || l.Expires <= expired {
			continue
		}
		refreshed++
		if dead[l.Root] || len(l.Comps) != len(whole.Comps) {
			t.Fatalf("peer %d holds %d of %d components of %q from peer %d", id, len(l.Comps), len(whole.Comps), last, l.Root)
		}
	}
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindDHTGetRetry || ev.Kind == obs.KindDHTGetFail {
			t.Fatalf("a lookup that named a dead peer waited out its timeout at peer %d", ev.Node)
		}
	}
	if refreshed == 0 {
		t.Fatal("nobody looked the last function up again")
	}
}
