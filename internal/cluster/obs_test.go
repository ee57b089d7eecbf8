package cluster_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// TestObsTraceCounterConsistency runs a seeded full-stack workload (with a
// burst failing a tenth of the peers, for wire drops and switchovers) with
// every telemetry plane attached, then cross-checks them: the trace must
// satisfy the protocol invariants, the wire-size histogram (observed at its
// site) must agree with the counters, and a replay of the run's trace file
// must rebuild the histograms folded from the trace byte for byte.
func TestObsTraceCounterConsistency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl.gz")
	tf, err := obs.CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	chk := obs.NewChecker()
	reg := obs.NewRegistry()
	met := obs.NewMetrics()
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{
		Seed: 11, IPNodes: 400, Peers: 60, Catalog: catalog(8),
		Recovery: &rc, Obs: reg, Metrics: met,
		Trace: obs.MultiTracer{tf, obs.TracerFunc(chk.Add)},
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
		for _, id := range c.FailFraction(0.1) {
			id := id
			c.Sim.Schedule(60*time.Second, func() { c.Net.Recover(id) })
		}
	})
	c.Sim.Run(5 * time.Minute)
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}

	tot := reg.Totals()
	if tot.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}

	// The wire-size histogram against the counters: one observation per
	// message sent, summing to the bytes sent.
	if n := met.WireBytes.Count(); n != tot.MsgsSent {
		t.Errorf("WireBytes observed %d, counters say %d messages sent", n, tot.MsgsSent)
	}
	if _, _, sum := met.WireBytes.Buckets(); int64(sum) != tot.BytesSent {
		t.Errorf("WireBytes sum %d, counters say %d bytes sent", int64(sum), tot.BytesSent)
	}

	// The folded histograms are the trace's: replaying the file into a fresh
	// Metrics encodes each exactly as the live run did.
	replay := obs.NewMetrics()
	if err := obs.StreamTrace(path, func(ev obs.Event) error { replay.Emit(ev); return nil }); err != nil {
		t.Fatal(err)
	}
	folded := func(m *obs.Metrics) []*obs.Histogram {
		return []*obs.Histogram{m.SetupLatency, m.DiscoveryLatency, m.ProbeHops, m.ProbeBudget, m.Switchover}
	}
	for i, h := range folded(met) {
		if h.Count() == 0 {
			t.Errorf("%s observed nothing: the run does not exercise it", h.Name())
		}
		live, replayed := h.AppendJSON(nil), folded(replay)[i].AppendJSON(nil)
		if !bytes.Equal(live, replayed) {
			t.Errorf("%s live\n%s\nreplayed\n%s", h.Name(), live, replayed)
		}
	}
}

// TestFoldedLatenciesCountTheirEvents: discovery latency has one sample per
// ok disc.done, on a run where tight delay bounds fail compositions after
// their discovery succeeded, and setup latency one per ok compose.done on a
// federated run, where a federated request ends in a compose.done of its own
// besides its segments'.
func TestFoldedLatenciesCountTheirEvents(t *testing.T) {
	t.Run("discovery", func(t *testing.T) {
		met := obs.NewMetrics()
		okDisc, okDone := int64(0), int64(0)
		c := cluster.New(cluster.Options{
			Seed: 11, IPNodes: 400, Peers: 60, Catalog: catalog(8), Metrics: met,
			Trace: obs.TracerFunc(func(ev obs.Event) {
				switch {
				case ev.Kind == obs.KindDiscDone && ev.Note == "ok":
					okDisc++
				case ev.Kind == obs.KindComposeDone && ev.Note == "ok":
					okDone++
				}
			}),
		})
		gen := workload.NewGenerator(workload.Config{
			Catalog: catalog(8), Peers: 60, MinFuncs: 2, MaxFuncs: 4,
			Budget: 12, DelayReqMin: 150, DelayReqMax: 600,
		}, c.Rng)
		for i := 0; i < 25; i++ {
			req := gen.Next()
			c.Sim.Schedule(time.Duration(i)*time.Second, func() {
				c.Peers[int(req.Source)].Engine.Compose(req, func(bcp.Result) {})
			})
		}
		c.Sim.Run(time.Minute)
		t.Logf("%d discoveries ok, %d compositions ok", okDisc, okDone)
		if okDone == 0 || okDone >= okDisc {
			t.Fatal("want compositions that fail after an ok discovery, and some that succeed")
		}
		if n := met.DiscoveryLatency.Count(); n != okDisc {
			t.Errorf("DiscoveryLatency observed %d, trace has %d ok disc.done", n, okDisc)
		}
	})
	t.Run("federated", func(t *testing.T) {
		met := obs.NewMetrics()
		okDone, fedOk := int64(0), int64(0)
		c := cluster.New(cluster.Options{
			Seed: 5, IPNodes: 600, Peers: 120, Catalog: catalog(12),
			Domains: &federation.Spec{Domains: 2, Gateways: 1}, Metrics: met,
			Trace: obs.TracerFunc(func(ev obs.Event) {
				if ev.Kind == obs.KindComposeDone && ev.Note == "ok" {
					okDone++
				}
			}),
		})
		gen := workload.NewGenerator(workload.Config{
			Catalog: catalog(12), Peers: 120, MinFuncs: 3, MaxFuncs: 6, Budget: 12,
		}, c.Rng)
		for i := 0; i < 20; i++ {
			req := gen.Next()
			c.Sim.Schedule(time.Duration(i)*time.Second, func() {
				c.Peers[int(req.Source)].Fed.Compose(req, func(res federation.Result) {
					if res.Ok {
						fedOk++
					}
				})
			})
		}
		c.Sim.Run(20*time.Second + c.Fed.Cfg.Drain())
		t.Logf("%d federated requests ok, %d ok compose.done", fedOk, okDone)
		if fedOk == 0 {
			t.Fatal("no federated request composed")
		}
		if n := met.SetupLatency.Count(); n != okDone {
			t.Errorf("SetupLatency observed %d, trace has %d ok compose.done", n, okDone)
		}
	})
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
