package cluster_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/registry"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// TestPartitionHealSoak runs sessions through a scheduled network partition
// and its heal: while the halves are cut, senders must detect broken graphs
// and recover (switchover or reactive) or die cleanly — never wedge; after
// the heal, cross-partition discovery must work again and no session may be
// left untracked.
func TestPartitionHealSoak(t *testing.T) {
	const nPeers = 30
	cat := catalog(6)
	rc := recovery.DefaultConfig()
	chk := obs.NewChecker()
	c := cluster.New(cluster.Options{
		Seed: 21, IPNodes: 200, Peers: nPeers, Catalog: cat,
		Recovery: &rc, Trace: obs.TracerFunc(chk.Add),
	})

	peers := make([]p2p.NodeID, nPeers)
	for i := range peers {
		peers[i] = p2p.NodeID(i)
	}
	// 20s partition starting at t=30s (sessions are up by then), plus a
	// little ambient loss so the hardened wire's three-silence hysteresis is
	// exercised too.
	spec := simnet.FaultSpec{
		Loss: 0.02, Jitter: 5 * time.Millisecond,
		PartDur: 20 * time.Second, PartAt: 30 * time.Second, Seed: 99,
	}
	c.ApplyFaults(spec.Plan(peers))
	healAt := c.Sim.Now() + 50*time.Second

	gen := workload.NewGenerator(workload.Config{
		Catalog: cat, Peers: nPeers, MinFuncs: 2, MaxFuncs: 3,
		Budget: 12, DelayReqMin: 500, DelayReqMax: 2000,
	}, c.Rng)
	established := 0
	for i := 0; i < 10; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*time.Second, func() {
			p := c.Peers[int(req.Source)]
			p.Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					established++
					p.Recovery.Establish(req, res)
				}
			})
		})
	}

	// Soak well past the heal so recoveries and re-probing settle.
	c.Sim.Run(healAt + 60*time.Second)
	if established == 0 {
		t.Fatal("no session established before the partition")
	}

	detected, dead, switched, reactives, alive := 0, 0, 0, 0, 0
	for _, p := range c.Peers {
		st := p.Recovery.Stats()
		detected += st.FailuresDetected
		dead += st.Dead
		switched += st.Switchovers
		reactives += st.Reactives
		alive += p.Recovery.Sessions()
	}
	if detected == 0 {
		t.Error("partition broke no session: soak exercised nothing")
	}
	// Conservation: every established session is either still alive or died
	// through the recorded kill path — none may silently vanish or wedge.
	if alive+dead != established {
		t.Errorf("sessions: %d alive + %d dead != %d established", alive, dead, established)
	}
	t.Logf("established=%d detected=%d switchovers=%d reactives=%d dead=%d alive=%d",
		established, detected, switched, reactives, dead, alive)

	// After the heal, cross-half discovery works again: every function is
	// findable from both sides of the former partition.
	checkDiscovery(t, c, cat)

	// The trace must stay internally consistent through partition chaos.
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}
}

// TestLossyWireSplitsEverySetup: on a hardened cluster over a lossy,
// duplicating, jittery wire, the span tree of every successful composition
// splits its setup time in full — discovery, probe, collect and commit add up
// to Result.SetupTime with nothing left unattributed — although some bcp.chosen
// messages, which carry no timing, are lost on the way to their sources.
func TestLossyWireSplitsEverySetup(t *testing.T) {
	chk, spans := obs.NewChecker(), span.NewBuilder()
	lost := 0
	c := cluster.New(cluster.Options{
		Seed: 3, IPNodes: 600, Peers: 120, Catalog: catalog(12),
		Trace: obs.MultiTracer{obs.TracerFunc(chk.Add), obs.TracerFunc(spans.Add), obs.TracerFunc(func(ev obs.Event) {
			if ev.Kind == obs.KindNetFault && ev.Note == obs.FaultLoss && ev.Comp == bcp.MsgChosen {
				lost++
			}
		})},
	})
	c.ApplyFaultSpec(&simnet.FaultSpec{Loss: 0.05, Dup: 0.02, Jitter: 20 * time.Millisecond, Seed: 7})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog(12), Peers: 120, MinFuncs: 2, MaxFuncs: 4,
		Budget: 12, DelayReqMin: 500, DelayReqMax: 2000,
	}, c.Rng)
	setups := map[uint64]time.Duration{}
	for i := 0; i < 200; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*500*time.Millisecond, func() {
			c.Peers[int(req.Source)].Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					setups[res.ReqID] = res.SetupTime
				}
			})
		})
	}
	c.Sim.RunUntilIdle()

	t.Logf("%d successes of 200, %d bcp.chosen lost", len(setups), lost)
	if len(setups) < 100 || lost == 0 {
		t.Fatalf("the cell exercised too little: %d successes, %d bcp.chosen lost", len(setups), lost)
	}
	f := spans.Build()
	for id, setup := range setups {
		tr := f.Tree(1, id)
		if tr == nil || !tr.Ok {
			t.Errorf("request %d succeeded but its span tree is %+v", id, tr)
			continue
		}
		if ph := tr.Phases; ph.Named() != setup || ph.Wait != 0 {
			t.Errorf("request %d: phases %+v name %v of a %v setup", id, ph, ph.Named(), setup)
		}
	}
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}
}

func checkDiscovery(t *testing.T, c *cluster.Cluster, cat []string) {
	t.Helper()
	for _, src := range []int{0, len(c.Peers) - 1} {
		for _, fn := range cat {
			fn := fn
			ok := false
			c.Peers[src].Registry.Discover(registry.FunctionKey(fn), 0, registry.Listing{Root: p2p.NoNode}, 2*time.Second, func(a dht.Answer) {
				ok = a.OK
			})
			c.Sim.RunUntilIdle()
			if !ok {
				t.Errorf("post-heal discovery of %s from peer %d failed: DHT did not re-converge", fn, src)
			}
		}
	}
}

// TestFaultTraceDeterministic pins the fault plane's determinism contract:
// identical seeds and fault plans yield byte-identical traces, and the fault
// RNG is isolated — plans whose rates are all zero produce the same trace
// regardless of their fault seed.
func TestFaultTraceDeterministic(t *testing.T) {
	render := func(plan simnet.FaultPlan) []byte {
		mem := &obs.MemSink{}
		c := cluster.New(cluster.Options{
			Seed: 31, IPNodes: 150, Peers: 24, Catalog: catalog(6), Trace: mem,
		})
		c.ApplyFaults(plan)
		gen := workload.NewGenerator(workload.Config{
			Catalog: catalog(6), Peers: 24, MinFuncs: 2, MaxFuncs: 3,
			Budget: 12, DelayReqMin: 500, DelayReqMax: 2000,
		}, c.Rng)
		for i := 0; i < 6; i++ {
			req := gen.Next()
			c.Sim.Schedule(time.Duration(i)*time.Second, func() {
				c.Peers[int(req.Source)].Engine.Compose(req, func(bcp.Result) {})
			})
		}
		c.Sim.RunUntilIdle()
		b, err := json.Marshal(mem.Events())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	lossy := simnet.FaultPlan{Seed: 5, Default: simnet.LinkFaults{Loss: 0.1, Dup: 0.05, Jitter: 8 * time.Millisecond}}
	a, b := render(lossy), render(lossy)
	if string(a) != string(b) {
		t.Error("same seed + same fault plan rendered different traces")
	}

	// Zero-rate plans draw nothing from the fault RNG, so the fault seed
	// must not leak into the schedule.
	zeroA := render(simnet.FaultPlan{Seed: 1, Default: simnet.LinkFaults{}})
	zeroB := render(simnet.FaultPlan{Seed: 2, Default: simnet.LinkFaults{}})
	clean := render(simnet.FaultPlan{})
	if string(zeroA) != string(zeroB) || string(zeroA) != string(clean) {
		t.Error("zero-rate fault plan perturbed the trace (fault RNG not isolated)")
	}

	// And a different fault seed over non-zero rates is allowed to change
	// the trace — if it never does, the seed is dead configuration.
	other := render(simnet.FaultPlan{Seed: 6, Default: simnet.LinkFaults{Loss: 0.1, Dup: 0.05, Jitter: 8 * time.Millisecond}})
	if string(a) == string(other) {
		t.Error("changing the fault seed changed nothing under 10% loss")
	}
}
