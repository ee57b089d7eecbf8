package cluster_test

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// TestObsTraceCounterConsistency runs a seeded full-stack workload (with a
// burst of peer failures to exercise wire drops and recovery) with every
// telemetry plane attached, then cross-checks them: the trace must satisfy
// the protocol invariants, and the histograms must have observed exactly as
// many values as the counters say happened.
func TestObsTraceCounterConsistency(t *testing.T) {
	chk := obs.NewChecker()
	okDone := int64(0) // successful compositions, reactive re-compositions included
	reg := obs.NewRegistry()
	met := obs.NewMetrics()
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{
		Seed: 11, IPNodes: 400, Peers: 60, Catalog: catalog(8),
		Recovery: &rc, Obs: reg, Metrics: met,
		Trace: obs.TracerFunc(func(ev obs.Event) {
			chk.Add(ev)
			if ev.Kind == obs.KindComposeDone && ev.Note == "ok" {
				okDone++
			}
		}),
	})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog(8), Peers: 60, MinFuncs: 2, MaxFuncs: 3,
		Budget: 12, DelayReqMin: 500, DelayReqMax: 2000,
	}, c.Rng)
	// Requests finish well before the failure burst: a composition launched
	// from an already-failed peer would put probes in the trace that no
	// delivery or drop ever resolves.
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

	tot := reg.Totals()
	if tot.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}

	// Histograms against counters: one observation per counted occurrence.
	if n := met.ProbeBudget.Count(); n != tot.ProbesSent {
		t.Errorf("ProbeBudget observed %d, counters say %d probes sent", n, tot.ProbesSent)
	}
	if n := met.ProbeHops.Count(); n != tot.ProbesReturned {
		t.Errorf("ProbeHops observed %d, counters say %d probes returned", n, tot.ProbesReturned)
	}
	if n := met.WireBytes.Count(); n != tot.MsgsSent {
		t.Errorf("WireBytes observed %d, counters say %d messages sent", n, tot.MsgsSent)
	}
	if _, _, sum := met.WireBytes.Buckets(); int64(sum) != tot.BytesSent {
		t.Errorf("WireBytes sum %d, counters say %d bytes sent", int64(sum), tot.BytesSent)
	}
	if _, _, sum := met.ProbeBudget.Buckets(); int64(sum) != tot.BudgetSpent {
		t.Errorf("ProbeBudget sum %d, counters say %d budget spent", int64(sum), tot.BudgetSpent)
	}

	// Setup latency is observed exactly once per successful composition
	// (including reactive re-compositions, which emit their own
	// compose.done).
	if okDone == 0 {
		t.Fatal("workload produced no successful composition")
	}
	if n := met.SetupLatency.Count(); n != okDone {
		t.Errorf("SetupLatency observed %d, trace has %d ok compositions", n, okDone)
	}
	if n := met.DiscoveryLatency.Count(); n != okDone {
		t.Errorf("DiscoveryLatency observed %d, trace has %d ok compositions", n, okDone)
	}
}

// TestLiveCheckMatchesReplay: a Checker fed live as the run's tracer reports
// exactly what one replaying the run's trace file reports — nothing on a
// clean run.
func TestLiveCheckMatchesReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl.gz")
	tf, err := obs.CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	live := obs.NewChecker()
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{
		Seed: 13, IPNodes: 300, Peers: 40, Catalog: catalog(6),
		Recovery: &rc, Trace: obs.MultiTracer{tf, obs.TracerFunc(live.Add)},
	})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog(6), Peers: 40, MinFuncs: 2, MaxFuncs: 3,
		Budget: 10, DelayReqMin: 500, DelayReqMax: 2000,
	}, c.Rng)
	for i := 0; i < 10; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*2*time.Second, func() {
			c.Peers[int(req.Source)].Engine.Compose(req, func(bcp.Result) {})
		})
	}
	c.Sim.Run(2 * time.Minute)
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	replay := obs.NewChecker()
	if err := obs.StreamTrace(path, func(ev obs.Event) error { replay.Add(ev); return nil }); err != nil {
		t.Fatal(err)
	}

	got, want := live.Finish(), replay.Finish()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("live checker reports %v, replay %v", got, want)
	}
	if len(got) != 0 {
		t.Errorf("%d violations on a clean run: %v", len(got), got)
	}
}

// TestObsTraceDeterministic renders the same seeded workload twice and
// requires byte-identical JSONL traces — the determinism contract the CI
// gate enforces on full spidersim runs.
func TestObsTraceDeterministic(t *testing.T) {
	render := func() string {
		var buf memWriter
		sink := obs.NewJSONLSink(&buf)
		rc := recovery.DefaultConfig()
		c := cluster.New(cluster.Options{
			Seed: 12, IPNodes: 300, Peers: 40, Catalog: catalog(6),
			Recovery: &rc, Trace: sink,
		})
		gen := workload.NewGenerator(workload.Config{
			Catalog: catalog(6), Peers: 40, MinFuncs: 2, MaxFuncs: 3,
			Budget: 10, DelayReqMin: 500, DelayReqMax: 2000,
		}, c.Rng)
		for i := 0; i < 10; i++ {
			req := gen.Next()
			c.Sim.Schedule(time.Duration(i)*2*time.Second, func() {
				c.Peers[int(req.Source)].Engine.Compose(req, func(bcp.Result) {})
			})
		}
		c.Sim.Run(2 * time.Minute)
		sink.Flush()
		return string(buf)
	}
	a, b := render(), render()
	if a == "" {
		t.Fatal("empty trace")
	}
	if a != b {
		t.Fatal("same seed rendered different traces")
	}
}

type memWriter []byte

func (m *memWriter) Write(p []byte) (int, error) {
	*m = append(*m, p...)
	return len(p), nil
}
