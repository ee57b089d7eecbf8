package bcp_test

import (
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/p2p"
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

// TestHopLookupsGoStraightToTheRoot: every lookup a probe causes at a hop is
// handed to the peer that answered the source — one routed message, none
// when the hop is that peer — and the probes pay 8 bytes per hint they
// carry, for the functions still ahead of their target only. Stripping the
// hints changes how far the lookups travel and nothing about the outcome.
func TestHopLookupsGoStraightToTheRoot(t *testing.T) {
	const base, perHop, perHint = 136, 64, 8 // the size model before hints + 8 B a hint
	probes := 0
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
		if want := base + perHop*len(pr.Visited) + perHint*ahead; size != want {
			t.Errorf("probe for function %d after %d hops is %d bytes on the wire, want %d", pr.CurFn, len(pr.Visited), size, want)
		}
	})
	if probes == 0 {
		t.Fatal("the tap saw no probe")
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
// lookup waits for a timeout.
func TestDeadHintRoutesLikeNoHint(t *testing.T) {
	mem := &obs.MemSink{}
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Trace: mem, Obs: reg})
	req := req3(c, 1, 24)
	last := req.FGraph.Function(2)
	root := p2p.NoNode
	c.Peers[0].Registry.DiscoverSpan(last, 0, p2p.NoNode, time.Second, func(_ []service.Component, from p2p.NodeID, _ int, _ bool) {
		root = from
	})
	c.Sim.Run(c.Sim.Now() + 5*time.Second)
	if root == p2p.NoNode || root == req.Source || root == req.Dest {
		t.Fatalf("root of %q is %d: want a bystander", last, root)
	}

	var res bcp.Result
	done := false
	c.Peers[0].Engine.Compose(req, func(r bcp.Result) { res, done = r, true })
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
}
