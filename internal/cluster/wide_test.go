package cluster_test

import (
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/qos"
	"repro/internal/service"
)

// TestWideFanOutCallsBack composes source -> k parallel functions -> sink
// requests for k = 3..7. Every branch probe records its own source and sink
// component, so nearly every combination of one record per branch
// disagrees; selection must skip a disagreeing prefix instead of trying the
// product of all k branches' records, which on this cluster took 31 s at
// k = 6 and did not end at k = 7. ci.sh runs it under a short timeout.
func TestWideFanOutCallsBack(t *testing.T) {
	c := cluster.New(cluster.Options{
		Seed: 3, IPNodes: 800, Peers: 200, Catalog: catalog(16), MinComps: 3, MaxComps: 5,
		Capacity: qos.Resources{qos.CPU: 100, qos.Memory: 1000},
	})
	fns := catalog(16)
	for k := 3; k <= 7; k++ {
		b := fgraph.NewBuilder()
		b.AddFunction(fns[0])
		sink := b.AddFunction(fns[k+1])
		for i := 1; i <= k; i++ {
			f := b.AddFunction(fns[i])
			b.AddDependency(0, f).AddDependency(f, sink)
		}
		fg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		req := &service.Request{
			ID: uint64(k), FGraph: fg, QoSReq: qos.Unbounded(), Res: qos.Resources{qos.CPU: 1, qos.Memory: 10},
			Bandwidth: 10, FailReq: 0.05, Source: 0, Dest: 1, Budget: 24,
		}
		start := time.Now()
		var res *bcp.Result
		eng := c.Peers[0].Engine
		eng.Compose(req, func(r bcp.Result) { res = &r })
		c.Sim.Run(c.Sim.Now() + bcp.GiveUpTimeout)
		if res == nil {
			t.Fatalf("%d-branch fan-out: the source was never called back", k)
		}
		t.Logf("%d-branch fan-out: ok %v after %v of wall time", k, res.Ok, time.Since(start).Round(time.Millisecond))
		if !res.Ok {
			t.Fatalf("%d-branch fan-out over idle peers with no QoS bound was not composed", k)
		}
		eng.Teardown(res.Best)
	}
}
