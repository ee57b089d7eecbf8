package bcp

import (
	"testing"
	"time"

	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/simnet"
)

// Next-hop selection reads the liveness view it is given. These worlds hand
// every engine a view of their own instead of the network's: a peer the view
// reports down still answers on the wire, so a probe that reached it would
// show in the trace.

// chainComp is component fn of a three-function chain a→b→c on peer p, taking
// input format in and producing out (service.FormatAny = 0 matches anything).
func chainComp(p int, fn string, in, out int) service.Component {
	c := service.Component{ID: fn + "@" + string(rune('0'+p)), Function: fn, Peer: p2p.NodeID(p), InFormat: in, OutFormat: out}
	c.Qp[qos.Delay] = 5
	return c
}

// viewWorld is discoveryRing(12) hosting comps on a flat oracle, every engine
// reading down as its liveness view (nil: every peer up), and the trace of
// everything it does.
func viewWorld(t *testing.T, down map[p2p.NodeID]bool, comps ...service.Component) (*simnet.Network, []*Engine, *obs.MemSink) {
	t.Helper()
	nw, engines := discoveryRing(12)
	mem := &obs.MemSink{}
	var capacity qos.Resources
	capacity[qos.CPU], capacity[qos.Memory] = 10, 100
	for _, e := range engines {
		if down != nil {
			e.alive = func(p p2p.NodeID) bool { return !down[p] }
		}
		e.ledger, e.oracle, e.Trace = qos.NewLedger(capacity), flatOracle{}, mem
	}
	for _, c := range comps {
		e := engines[c.Peer]
		e.local = append(e.local, c)
		e.reg.Register(c)
	}
	nw.Sim().RunUntilIdle()
	return nw, engines, mem
}

// composeChainOn runs one a→b→c request from peer 0 to peer 1 and returns its
// outcome and how long after the request it arrived.
func composeChainOn(nw *simnet.Network, engines []*Engine) (res Result, after time.Duration) {
	req := &service.Request{ID: 1, FGraph: fgraph.Linear("a", "b", "c"), QoSReq: qos.Unbounded(),
		Bandwidth: 100, Source: 0, Dest: 1, Budget: 8}
	req.QoSReq[qos.Delay] = 5000
	req.Res[qos.CPU], req.Res[qos.Memory] = 1, 10
	start, done := nw.Sim().Now(), false
	engines[0].Compose(req, func(r Result) { res, after, done = r, nw.Sim().Now()-start, true })
	nw.Sim().RunUntilIdle()
	if !done {
		panic("composition never called back")
	}
	return res, after
}

// probedPeers counts the probes the trace shows emitted toward each peer.
func probedPeers(events []obs.Event) map[p2p.NodeID]int {
	to := map[p2p.NodeID]int{}
	for _, ev := range events {
		if ev.Kind == obs.KindProbeSent || ev.Kind == obs.KindProbeForwarded {
			to[ev.Peer]++
		}
	}
	return to
}

// TestDownCandidateNeverProbed: with every peer up the request probes both
// providers of every function; with the view reporting one b and one c
// provider down, not one probe goes to either, and the request composes on
// the others — at the source (b's list rides the first probes) and at every
// later hop.
func TestDownCandidateNeverProbed(t *testing.T) {
	comps := []service.Component{
		chainComp(2, "a", 0, 0), chainComp(3, "a", 0, 0),
		chainComp(4, "b", 0, 0), chainComp(5, "b", 0, 0),
		chainComp(6, "c", 0, 0), chainComp(7, "c", 0, 0),
	}
	nw, engines, mem := viewWorld(t, nil, comps...)
	if res, _ := composeChainOn(nw, engines); !res.Ok {
		t.Fatal("composition failed with every peer up")
	}
	if to := probedPeers(mem.Events()); to[4] == 0 || to[6] == 0 {
		t.Fatalf("with every peer up peers 4 and 6 got %d and %d probes: the case is not exercised", to[4], to[6])
	}

	nw, engines, mem = viewWorld(t, map[p2p.NodeID]bool{4: true, 6: true}, comps...)
	res, _ := composeChainOn(nw, engines)
	if !res.Ok {
		t.Fatal("composition failed although b and c each have a provider up")
	}
	if to := probedPeers(mem.Events()); to[4] != 0 || to[6] != 0 {
		t.Fatalf("peers 4 and 6, down in the view, got %d and %d probes", to[4], to[6])
	}
	if res.Best.ContainsPeer(4) || res.Best.ContainsPeer(6) {
		t.Fatal("the selected graph uses a peer the view reports down")
	}
}

// TestAllCandidatesDownDropsWithDown: a's provider on peer 2 emits format 1,
// which only b on peer 4 accepts, and the view reports peer 4 down; a on peer
// 3 feeds b on peer 5. The probe at peer 2 has a candidate that qualifies but
// for its peer, so it dies there with reason "down" and returns its credit:
// the other branch composes and collection closes on credit, not on the
// window.
func TestAllCandidatesDownDropsWithDown(t *testing.T) {
	nw, engines, mem := viewWorld(t, map[p2p.NodeID]bool{4: true},
		chainComp(2, "a", 0, 1), chainComp(3, "a", 0, 2),
		chainComp(4, "b", 1, 0), chainComp(5, "b", 2, 0),
		chainComp(6, "c", 0, 0),
	)
	res, _ := composeChainOn(nw, engines)
	if !res.Ok {
		t.Fatal("composition failed although a@3 → b@5 → c@6 is up")
	}
	var reasons []string
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindProbeDropped {
			reasons = append(reasons, ev.Note)
			if ev.Node != 2 || ev.Note != "down" {
				t.Errorf("probe dropped at peer %d with reason %q, want peer 2 and \"down\"", ev.Node, ev.Note)
			}
		}
	}
	if len(reasons) != 1 {
		t.Fatalf("%d probes dropped (%v), want the one at peer 2", len(reasons), reasons)
	}
	b := span.NewBuilder()
	for _, ev := range mem.Events() {
		b.Add(ev)
	}
	if wait := b.Build().Tree(1, 1).Phases.Collect; wait >= time.Millisecond {
		t.Fatalf("collect phase %v: the collection waited for the dead branch's credit", wait)
	}
}

// TestSourceWithEveryCandidateDownFailsAtOnce: when the view reports every
// provider of the source function down, no probe leaves the source and the
// request fails the moment discovery ends, not at the give-up timeout.
func TestSourceWithEveryCandidateDownFailsAtOnce(t *testing.T) {
	nw, engines, mem := viewWorld(t, map[p2p.NodeID]bool{2: true, 3: true},
		chainComp(2, "a", 0, 0), chainComp(3, "a", 0, 0),
		chainComp(4, "b", 0, 0), chainComp(6, "c", 0, 0),
	)
	res, after := composeChainOn(nw, engines)
	if res.Ok {
		t.Fatal("composed although every provider of a is down")
	}
	if n := len(probedPeers(mem.Events())); n != 0 {
		t.Fatalf("probes went to %d peers", n)
	}
	if after != res.DiscoveryTime || after >= GiveUpTimeout {
		t.Fatalf("failed %v after the request with discovery at %v: want the failure as discovery ends", after, res.DiscoveryTime)
	}
}
