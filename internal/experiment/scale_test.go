package experiment

import (
	"testing"

	"repro/internal/obs"
)

// scaleTestConfig is DefaultScaleConfig cut to its top load, where the
// shedding plane is busiest.
func scaleTestConfig() ScaleConfig {
	cfg := DefaultScaleConfig()
	cfg.Loads = []int{24}
	return cfg
}

// TestScaleLoadAwareWinsUnderHeavyTraffic pins the experiment's headline
// claim: at the highest offered load, the load-aware variant achieves a
// strictly lower per-peer peak utilization (the hotspot), a strictly lower
// median setup latency, and no worse success ratio than the load-blind one.
// Setup p99 is the collect window's bound under both variants — its order
// flips from seed to seed (EXPERIMENTS.md Scale) — so it is held to within 3 %.
func TestScaleLoadAwareWinsUnderHeavyTraffic(t *testing.T) {
	res := scaleDefault().res
	var blind, aware *ScalePoint
	top := 0
	for _, p := range res.Points {
		if p.Load > top {
			top = p.Load
		}
	}
	for i := range res.Points {
		p := &res.Points[i]
		if p.Load != top {
			continue
		}
		if p.Aware {
			aware = p
		} else {
			blind = p
		}
	}
	if blind == nil || aware == nil {
		t.Fatalf("missing variants at top load %d: %+v", top, res.Points)
	}
	t.Logf("top load %d: blind=%+v aware=%+v", top, *blind, *aware)
	if aware.UtilMax >= blind.UtilMax {
		t.Errorf("aware util max %.3f, want < blind %.3f", aware.UtilMax, blind.UtilMax)
	}
	if aware.SetupP50 >= blind.SetupP50 {
		t.Errorf("aware setup p50 %.3f ms, want < blind %.3f ms", aware.SetupP50, blind.SetupP50)
	}
	if aware.SetupP99 > 1.03*blind.SetupP99 {
		t.Errorf("aware setup p99 %.3f ms, want within 3%% of blind %.3f ms", aware.SetupP99, blind.SetupP99)
	}
	if aware.Success < blind.Success {
		t.Errorf("aware success %.3f, want >= blind %.3f", aware.Success, blind.Success)
	}
}

// TestScaleShedsOnlyWhenAware checks the control plane stays opt-in: the
// blind cells run the same delay model yet never shed a probe. The counts are
// read from the sweep's shared registry, so this is also the test that the
// per-cell registries of the load driver fold into it.
func TestScaleShedsOnlyWhenAware(t *testing.T) {
	cfg := scaleTestConfig()
	cfg.Counters = obs.NewRegistry()
	res := Scale(cfg)
	tot := cfg.Counters.Totals()
	if tot.ProbesShed == 0 {
		t.Errorf("no probes shed across the sweep; shedding plane inert (points %+v)", res.Points)
	}

	blindOnly := scaleTestConfig()
	blindOnly.Shed = 0
	blindOnly.Counters = obs.NewRegistry()
	Scale(blindOnly)
	if n := blindOnly.Counters.Totals().ProbesShed; n != 0 {
		t.Errorf("shed threshold 0 still shed %d probes", n)
	}
}
