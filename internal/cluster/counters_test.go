package cluster_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/workload"
)

var updateCounters = flag.Bool("update", false, "rewrite testdata/counters_per_node.txt instead of comparing against it")

// counterRuns are three seeded workloads that between them move every
// counter but probes_shed (which needs a load model): a churn burst (wire
// drops, recovery), a fault plan (loss, dup, a partition, probe
// retransmits) and a federated plan (2PC prepares, commits and aborts). Each takes the tracer the run hands its layers (nil: counters
// only) and the registry it counts into.
var counterRuns = []struct {
	name string
	run  func(trace obs.Tracer, reg *obs.Registry)
}{
	{"churn", churnRun},
	{"faults", faultRun},
	{"federated", fedRun},
}

// churnRun is TestObsTraceCounterConsistency's workload: 25 compositions, then
// 5 % of the peers fail at 80 s and come back a minute later.
func churnRun(trace obs.Tracer, reg *obs.Registry) {
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{
		Seed: 11, IPNodes: 400, Peers: 60, Catalog: catalog(8),
		Recovery: &rc, Obs: reg, Trace: trace,
	})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog(8), Peers: 60, MinFuncs: 2, MaxFuncs: 3,
		Budget: 12, DelayReqMin: 500, DelayReqMax: 2000,
	}, c.Rng)
	for i := 0; i < 25; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*2*time.Second, func() {
			p := c.Peers[int(req.Source)]
			p.Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					p.Recovery.Establish(req, res)
				}
			})
		})
	}
	c.Sim.Schedule(80*time.Second, func() {
		for _, id := range c.FailFraction(0.05) {
			id := id
			c.Sim.Schedule(60*time.Second, func() { c.Net.Recover(id) })
		}
	})
	c.Sim.Run(5 * time.Minute)
}

// faultRun composes through ambient loss and duplication and a 20 s
// partition, on the stack the plan hardens (per-hop probe retransmits).
func faultRun(trace obs.Tracer, reg *obs.Registry) {
	const nPeers = 40
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{
		Seed: 3, IPNodes: 300, Peers: nPeers, Catalog: catalog(6),
		Recovery: &rc, Obs: reg, Trace: trace,
	})
	peers := make([]p2p.NodeID, nPeers)
	for i := range peers {
		peers[i] = p2p.NodeID(i)
	}
	spec := simnet.FaultSpec{
		Loss: 0.1, Dup: 0.05, Jitter: 5 * time.Millisecond,
		PartDur: 8 * time.Second, PartAt: 20 * time.Second, Seed: 11,
	}
	c.ApplyFaults(spec.Plan(peers))
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog(6), Peers: nPeers, MinFuncs: 2, MaxFuncs: 3,
		Budget: 12, DelayReqMin: 200, DelayReqMax: 800,
	}, c.Rng)
	for i := 0; i < 20; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*2*time.Second, func() {
			p := c.Peers[int(req.Source)]
			p.Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					p.Recovery.Establish(req, res)
				}
			})
		})
	}
	c.Sim.Run(2 * time.Minute)
}

// fedRun composes across three domains with short holds, so some prepared
// reservations commit and some are released.
func fedRun(trace obs.Tracer, reg *obs.Registry) {
	c := cluster.New(cluster.Options{
		Seed: 1, IPNodes: 400, Peers: 60, Catalog: catalog(12),
		Domains: &federation.Spec{Domains: 3, Gateways: 2, Hold: 10 * time.Second, Life: 10 * time.Second},
		Obs:     reg, Trace: trace,
	})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog(12), Peers: 60, MinFuncs: 3, MaxFuncs: 6,
		Budget: 12, DelayReqMin: 200, DelayReqMax: 800,
	}, c.Rng)
	for i := 0; i < 30; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*time.Second, func() {
			c.Peers[int(req.Source)].Fed.Compose(req, func(federation.Result) {})
		})
	}
	c.Sim.Run(40*time.Second + c.Fed.Cfg.Drain())
}

// renderCounters writes every node's counters, one row per node and one
// column per CounterTable row.
func renderCounters(buf *bytes.Buffer, name string, reg *obs.Registry) {
	fmt.Fprintf(buf, "# %s\nnode", name)
	for _, k := range obs.CounterTable {
		fmt.Fprintf(buf, " %s", k.Name())
	}
	buf.WriteByte('\n')
	for _, s := range reg.Snapshot() {
		fmt.Fprintf(buf, "%d", s.ID)
		for _, k := range obs.CounterTable {
			fmt.Fprintf(buf, " %d", k.Value(&s.Counters))
		}
		buf.WriteByte('\n')
	}
}

// TestCountersPerNode pins every node's counters, every row, on the three
// counter runs: a counter that lands on the wrong node, or on no node, moves
// the file even where the run's totals agree. -update rewrites it.
func TestCountersPerNode(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range counterRuns {
		reg := obs.NewRegistry()
		r.run(nil, reg)
		renderCounters(&buf, r.name, reg)
	}
	path := filepath.Join("testdata", "counters_per_node.txt")
	if *updateCounters {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("per-node counters differ from %s (go test -run CountersPerNode -update to rewrite):\n%s", path, firstDiff(buf.String(), string(want)))
	}
}

// TestCountersOnlyEqualsTraced: a registry attached with no trace sink counts
// node for node what it counts beside one, so the fold rides every layer
// either way.
func TestCountersOnlyEqualsTraced(t *testing.T) {
	for _, r := range counterRuns {
		alone, traced, mem := obs.NewRegistry(), obs.NewRegistry(), &obs.MemSink{}
		r.run(nil, alone)
		r.run(mem, traced)
		if len(mem.Events()) == 0 {
			t.Fatalf("%s: the traced run emitted nothing", r.name)
		}
		if a, b := alone.Snapshot(), traced.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counters-only run differs from the traced run", r.name)
		}
	}
}

// firstDiff returns the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return ""
}
