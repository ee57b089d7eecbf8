package bcp_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simnet"
)

// recorder keeps a cluster's events and shows each to hook, when set, as it
// is emitted.
type recorder struct {
	obs.MemSink
	hook func(obs.Event)
}

func (r *recorder) Emit(ev obs.Event) {
	r.MemSink.Emit(ev)
	if r.hook != nil {
		r.hook(ev)
	}
}

// ledgers reads every peer's hard and soft allocations.
func ledgers(c *cluster.Cluster) [][2]qos.Resources {
	out := make([][2]qos.Resources, len(c.Peers))
	for i, p := range c.Peers {
		out[i] = [2]qos.Resources{p.Ledger.HardAllocated(), p.Ledger.SoftAllocated()}
	}
	return out
}

// TestEveryEndingFinishesOnce: whichever of BCP's endings ends a composition,
// the source calls back once and never again, traces one compose.done whose
// duration is the result's SetupTime and the time the callback came after
// Compose, and keeps nothing pending; and every peer's ledger is back where it
// was before the request — after a refused reverse-path walk too.
func TestEveryEndingFinishesOnce(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
		// stage shapes the request and the world before Compose; it may set
		// the recorder's hook.
		stage func(t *testing.T, c *cluster.Cluster, rec *recorder, req *service.Request)
		// check looks at the result and the run's events afterwards.
		check func(t *testing.T, res bcp.Result, evs []obs.Event)
	}{
		{name: "invalid request",
			stage: func(_ *testing.T, _ *cluster.Cluster, _ *recorder, req *service.Request) { req.Budget = 0 },
			check: func(t *testing.T, res bcp.Result, _ []obs.Event) {
				if res.SetupTime != 0 {
					t.Errorf("an invalid request took %v", res.SetupTime)
				}
			}},
		{name: "unknown function",
			stage: func(_ *testing.T, _ *cluster.Cluster, _ *recorder, req *service.Request) {
				req.FGraph = fgraph.Linear("no-such-function")
			},
			check: func(t *testing.T, res bcp.Result, evs []obs.Event) {
				if res.SetupTime <= 0 || res.SetupTime != res.DiscoveryTime {
					t.Errorf("setup %v, discovery %v: want the discovery's time, positive", res.SetupTime, res.DiscoveryTime)
				}
				if countKind(evs, obs.KindProbeSent) != 0 {
					t.Error("probes launched for a function nobody provides")
				}
			}},
		{name: "discovery timeout",
			stage: func(_ *testing.T, c *cluster.Cluster, _ *recorder, req *service.Request) {
				bystanderSource(c, req)
				key := registry.FunctionKey(req.FGraph.Function(2))
				silent := make(map[p2p.NodeID]simnet.LinkFaults)
				for id, p := range c.Peers {
					if p.DHT.StoredUnder(key) > 0 {
						silent[p2p.NodeID(id)] = simnet.LinkFaults{Loss: 1}
					}
				}
				c.Net.SetFaults(simnet.FaultPlan{Seed: 1, Nodes: silent})
			},
			check: func(t *testing.T, res bcp.Result, evs []obs.Event) {
				if res.SetupTime <= 0 || res.SetupTime != res.DiscoveryTime || countKind(evs, obs.KindProbeSent) != 0 {
					t.Errorf("setup %v, discovery %v: want a failure as discovery times out", res.SetupTime, res.DiscoveryTime)
				}
			}},
		{name: "give-up",
			stage: func(_ *testing.T, c *cluster.Cluster, _ *recorder, req *service.Request) { c.Net.Fail(req.Dest) },
			check: func(t *testing.T, res bcp.Result, _ []obs.Event) {
				if res.SetupTime != bcp.GiveUpTimeout {
					t.Errorf("gave up after %v, want %v", res.SetupTime, bcp.GiveUpTimeout)
				}
			}},
		{name: "no qualified graph",
			stage: func(t *testing.T, c *cluster.Cluster, _ *recorder, req *service.Request) {
				// A diamond whose one side, fns[3], has every provider down:
				// the other side's probes reach the destination, which can
				// join them to nothing.
				fns := c.FunctionsByReplicas()
				b := fgraph.NewBuilder()
				for _, i := range []int{0, 1, 3, 2} {
					b.AddFunction(fns[i])
				}
				b.AddDependency(0, 1).AddDependency(0, 2).AddDependency(1, 3).AddDependency(2, 3)
				fg, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				req.FGraph = fg
				for _, comp := range c.ComponentsFor(fns[3]) {
					if comp.Peer == req.Source || comp.Peer == req.Dest {
						t.Fatalf("endpoint %d provides %s", comp.Peer, fns[3])
					}
					c.Net.Fail(comp.Peer)
				}
			},
			check: func(t *testing.T, res bcp.Result, evs []obs.Event) {
				if countKind(evs, obs.KindProbeReturned) == 0 || countKind(evs, obs.KindSelectDone) != 1 || res.SetupTime >= bcp.GiveUpTimeout {
					t.Errorf("setup %v: want the destination's answer to returned probes after selection", res.SetupTime)
				}
			}},
		{name: "mid-ACK refusal",
			stage: func(t *testing.T, c *cluster.Cluster, rec *recorder, req *service.Request) {
				// The same seed composes the same graph: learn it on a twin
				// cluster. Once the walk has committed the sink and the middle
				// function, the path from the first function's peer to the
				// second's fills up, so the walk's last stop refuses.
				twin := cluster.New(cluster.Options{Seed: 21, Peers: 50, Catalog: catalog(6)})
				best := compose(twin, req3(twin, req.ID, req.Budget)).Best
				if best == nil {
					t.Fatal("the twin composed nothing")
				}
				p0, p1 := best.Comps[0].Comp.Peer, best.Comps[1].Comp.Peer
				if p0 == p1 {
					t.Fatal("the first two functions share a peer: no path to fill")
				}
				admits := 0
				rec.hook = func(ev obs.Event) {
					if ev.Kind == obs.KindSessionAdmit && ev.Req == req.ID {
						if admits++; admits == 2 {
							_, avail, _ := c.Oracle().Path(p0, p1)
							c.Oracle().AllocBandwidth(p0, p1, avail)
						}
					}
				}
			},
			check: func(t *testing.T, _ bcp.Result, evs []obs.Event) {
				if n, r := countKind(evs, obs.KindSessionAdmit), countKind(evs, obs.KindSessionReject); n != 2 || r != 1 {
					t.Errorf("%d admits and %d rejects: want the last of three stops to refuse after two admitted", n, r)
				}
			}},
		{name: "success", ok: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			c := cluster.New(cluster.Options{Seed: 21, Peers: 50, Catalog: catalog(6), Trace: rec})
			req := req3(c, 1, 24)
			if tc.stage != nil {
				tc.stage(t, c, rec, req)
			}
			before := ledgers(c)
			eng := c.Peers[int(req.Source)].Engine
			start := c.Sim.Now()
			var res bcp.Result
			var after time.Duration
			calls := 0
			eng.Compose(req, func(r bcp.Result) {
				calls++
				res, after = r, c.Sim.Now()-start
			})
			c.Sim.Run(c.Sim.Now() + 60*time.Second)
			c.Sim.Run(c.Sim.Now() + bcp.GiveUpTimeout)
			if calls != 1 || res.Ok != tc.ok {
				t.Fatalf("%d callbacks, ok=%v: want one, ok=%v", calls, res.Ok, tc.ok)
			}
			if n := eng.Pending(); n != 0 {
				t.Errorf("%d compositions still pending", n)
			}
			var dones []obs.Event
			for _, ev := range rec.Events() {
				if ev.Kind == obs.KindComposeDone && ev.Req == req.ID {
					dones = append(dones, ev)
				}
			}
			if len(dones) != 1 || dones[0].Dur != res.SetupTime || res.SetupTime != after {
				t.Errorf("compose.done %v, SetupTime %v, callback %v after Compose: want one, all equal", dones, res.SetupTime, after)
			}
			if tc.check != nil {
				tc.check(t, res, rec.Events())
			}
			if res.Ok {
				eng.Teardown(res.Best)
				c.Sim.Run(c.Sim.Now() + 10*time.Second)
			}
			if !slices.Equal(ledgers(c), before) {
				t.Error("the composition left allocations behind")
			}
		})
	}
}

func countKind(evs []obs.Event, kind string) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
