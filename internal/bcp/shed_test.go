package bcp_test

import (
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/qos"
)

// shedCluster is a 60-peer cluster whose peers shed at the committed
// utilization one req3 reservation alone produces (cpu 1 of 4). A peer hosts
// one component, so none hosts two of a request's functions: the (request,
// component) rule rightly sheds a probe at a second component of a peer its
// request already loads, which is not what these tests are about.
func shedCluster(tr obs.Tracer) *cluster.Cluster {
	var cap qos.Resources
	cap[qos.CPU] = 4
	cap[qos.Memory] = 40
	return cluster.New(cluster.Options{
		Seed: 7, Peers: 60, Catalog: catalog(8), MaxComps: 1, Capacity: cap, Trace: tr,
		Load: &cluster.LoadOptions{Model: qos.DefaultLoadModel(), Aware: true, Shed: 0.25},
	})
}

// shedDrops splits the probes that died of shedding into those declined by a
// component the trace shows the same request holding (a sibling probe had
// already been forwarded or reported from it; a hold whose probe is still
// waiting on its lookup does not show, so own is a lower bound) and the rest.
func shedDrops(events []obs.Event) (own, foreign int) {
	type hold struct {
		req  uint64
		comp string
	}
	target := map[uint64]string{} // probe → the component it was sent to examine
	held := map[hold]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindProbeSent, obs.KindProbeForwarded:
			target[ev.PID] = ev.Comp
			if comp, ok := target[ev.PPID]; ok {
				held[hold{ev.Req, comp}] = true
			}
		case obs.KindProbeReturned:
			held[hold{ev.Req, target[ev.PID]}] = true
		case obs.KindProbeDropped:
			if ev.Note != "shed" {
			} else if held[hold{ev.Req, ev.Comp}] {
				own++
			} else {
				foreign++
			}
		}
	}
	return own, foreign
}

// TestRequestIsNotShedAgainstItsOwnReservation: on an idle cluster whose
// shedding threshold is one reservation, the sibling probes of a single
// request converge on components the request already holds. They add no load,
// so none is shed, no credit is lost and collection closes before the window;
// a second request arriving at those peers is still declined.
func TestRequestIsNotShedAgainstItsOwnReservation(t *testing.T) {
	mem := &obs.MemSink{}
	c := shedCluster(mem)
	req := req3(c, 1, 24)
	if res := compose(c, req); !res.Ok {
		t.Fatal("composition failed")
	}
	if own, foreign := shedDrops(mem.Events()); own+foreign != 0 {
		t.Fatalf("a lone request lost %d probes to shedding (%d at components it already held)", own+foreign, own)
	}
	if got := closeIn(mem.Events(), req.ID); got.selectDone == nil || got.selectDone.Dur <= 0 {
		t.Fatalf("collection waited out the window: %+v", got)
	}

	mem, chk := &obs.MemSink{}, obs.NewChecker()
	c = shedCluster(obs.MultiTracer{mem, obs.TracerFunc(chk.Add)})
	first, second := req3(c, 1, 24), req3(c, 2, 24)
	second.Source, second.Dest = 4, 5
	done := 0
	c.Peers[0].Engine.Compose(first, func(bcp.Result) { done++ })
	c.Peers[4].Engine.Compose(second, func(bcp.Result) { done++ })
	c.Sim.Run(c.Sim.Now() + 60*time.Second)
	own, foreign := shedDrops(mem.Events())
	if done != 2 || own != 0 || foreign == 0 {
		t.Fatalf("%d of 2 compositions done, %d probes shed at components their request held, %d elsewhere; want 2, 0, > 0",
			done, own, foreign)
	}
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}
}
