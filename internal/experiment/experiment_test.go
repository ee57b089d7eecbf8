package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// Shape tests: the reproduced figures must exhibit the qualitative
// relationships the paper reports. Absolute values are not checked here (our
// substrate is a simulator, not the authors' testbed); they are pinned by
// TestFiguresGolden, which renders the same default-configuration runs
// (figures_test.go) the shape tests read.

func TestFig8Shape(t *testing.T) {
	res := fig8Default().res
	if len(res.Points) != 5 {
		t.Fatalf("points=%d", len(res.Points))
	}
	for _, p := range res.Points {
		// Ordering: optimal >= probing variants (within tolerance), and the
		// QoS-aware schemes beat the oblivious ones decisively.
		if p.Optimal < p.Probing20-0.15 {
			t.Errorf("workload %d: optimal %.2f below probing-0.2 %.2f", p.Workload, p.Optimal, p.Probing20)
		}
		if p.Probing20 < p.Probing10-0.1 {
			t.Errorf("workload %d: probing-0.2 %.2f well below probing-0.1 %.2f", p.Workload, p.Probing20, p.Probing10)
		}
		if p.Probing10 <= p.Random {
			t.Errorf("workload %d: probing-0.1 %.2f not above random %.2f", p.Workload, p.Probing10, p.Random)
		}
		if p.Optimal == 0 {
			t.Errorf("workload %d: optimal found nothing", p.Workload)
		}
	}
	// Success decreases (or at least does not grow) as workload rises.
	lo, hi := res.Points[0], res.Points[len(res.Points)-1]
	if hi.Optimal > lo.Optimal+0.05 {
		t.Errorf("optimal success grew with workload: %.2f -> %.2f", lo.Optimal, hi.Optimal)
	}
	if !strings.Contains(res.Table.String(), "probing-0.2") {
		t.Error("table missing series")
	}
}

// TestFig9Shape also holds Fig 9 to its trace: each unit's count is that
// cell's rec.dead events from the warm-up on, bucketed by TimeUnit.
func TestFig9Shape(t *testing.T) {
	mem := &obs.MemSink{}
	cfg := DefaultFig9Config()
	cfg.Sweep = Sweep{Seed: 1, Parallel: 1, Trace: mem}
	res := Fig9(cfg)
	if len(res.Points) != 60 {
		t.Fatalf("points=%d", len(res.Points))
	}
	totalWithout, totalWith := 0, 0
	for _, p := range res.Points {
		totalWithout += p.WithoutRecovery
		totalWith += p.WithRecovery
	}
	if totalWithout == 0 {
		t.Fatal("churn produced no failures in the unprotected population")
	}
	// Proactive recovery must eliminate the large majority of failures.
	if float64(totalWith) > 0.4*float64(totalWithout) {
		t.Fatalf("recovery ineffective: %d unrecovered vs %d without recovery", totalWith, totalWithout)
	}
	// Failures were actually repaired, not just undetected.
	if res.Switchovers+res.Reactives == 0 {
		t.Fatal("no recoveries recorded")
	}
	// A small number of backups suffices (the paper reports ≈2.74).
	if res.AvgBackups <= 0 || res.AvgBackups > 5 {
		t.Fatalf("AvgBackups=%v out of plausible range", res.AvgBackups)
	}

	// The cells run in order, with recovery then without, each on a clock
	// starting at zero: a timestamp going backward starts the second.
	dead := [2][]int{make([]int, cfg.TimeUnits), make([]int, cfg.TimeUnits)}
	cell := 0
	var last time.Duration
	for _, ev := range mem.Events() {
		if ev.TS < last {
			cell++
		}
		last = ev.TS
		if ev.Kind == obs.KindRecDead && ev.TS >= fig9Warmup {
			if u := int((ev.TS - fig9Warmup) / cfg.TimeUnit); u < cfg.TimeUnits {
				dead[cell][u]++
			}
		}
	}
	if cell != 1 {
		t.Fatalf("trace holds %d cells, want 2", cell+1)
	}
	for _, p := range res.Points {
		if p.WithRecovery != dead[0][p.Minute] || p.WithoutRecovery != dead[1][p.Minute] {
			t.Errorf("unit %d: with/without %d/%d, trace's rec.dead %d/%d",
				p.Minute, p.WithRecovery, p.WithoutRecovery, dead[0][p.Minute], dead[1][p.Minute])
		}
	}
}

func TestFig10Shape(t *testing.T) {
	cfg := DefaultFig10Config()
	cfg.Hosts = 60
	cfg.Speedup = 100
	cfg.RequestsPerSize = 6
	res := Fig10(cfg)
	if len(res.Points) != 5 {
		t.Fatalf("points=%d", len(res.Points))
	}
	okSizes := 0
	for _, p := range res.Points {
		if p.Succeeded == 0 {
			continue
		}
		okSizes++
		if p.Total <= 0 || p.Discovery <= 0 {
			t.Fatalf("funcs=%d: non-positive times %+v", p.Funcs, p)
		}
		if p.Discovery >= p.Total {
			t.Fatalf("funcs=%d: discovery %v exceeds total %v", p.Funcs, p.Discovery, p.Total)
		}
		// Setup completes within seconds of protocol time, like the paper.
		if p.Total > 30*time.Second {
			t.Fatalf("funcs=%d: setup %v implausibly slow", p.Funcs, p.Total)
		}
	}
	if okSizes < 3 {
		t.Fatalf("only %d function sizes composed successfully", okSizes)
	}
	// The paper's shape — setup time does not shrink as functions are
	// added — now has to come from path length alone (more probe hops, a
	// longer ACK chain), not from the per-function collection window. At
	// this compression the curve rises ~1.4x from 2 to 6 functions; at low
	// compression it is nearly flat (EXPERIMENTS.md, Figure 10), so the
	// assertion is coarse: the live runtime runs on real timers.
	small, large := res.Points[0], res.Points[len(res.Points)-1]
	if small.Succeeded > 0 && large.Succeeded > 0 && large.Total < small.Total*8/10 {
		t.Fatalf("setup at %d functions (%v) well below setup at %d functions (%v)",
			large.Funcs, large.Total, small.Funcs, small.Total)
	}
}

func TestFig11Shape(t *testing.T) {
	res := fig11Default().res
	if len(res.Points) != 8 {
		t.Fatalf("points=%d", len(res.Points))
	}
	small, mid, large := res.Points[0], res.Points[3], res.Points[7]
	if small.SpiderNet == 0 || large.SpiderNet == 0 || large.Optimal == 0 {
		t.Fatalf("missing series: %+v", res.Points)
	}
	// Delay improves (weakly) with budget.
	if large.SpiderNet > small.SpiderNet+1 {
		t.Fatalf("delay grew with budget: %.0f -> %.0f", small.SpiderNet, large.SpiderNet)
	}
	// With a large budget SpiderNet approaches optimal (within 30%) and
	// beats random clearly.
	if large.SpiderNet > large.Optimal*1.3 {
		t.Fatalf("large budget %.0fms far from optimal %.0fms", large.SpiderNet, large.Optimal)
	}
	if large.SpiderNet >= large.Random {
		t.Fatalf("spidernet %.0f not better than random %.0f", large.SpiderNet, large.Random)
	}
	if mid.Optimal <= 0 {
		t.Fatal("optimal series empty at mid budget")
	}
	// The exhaustive probe count matches replicas^funcs scale.
	if large.OptimalProbes < 100 {
		t.Fatalf("optimal probe count %d implausibly low", large.OptimalProbes)
	}
}

func TestOverheadShape(t *testing.T) {
	res := overheadDefault().res
	if res.SpiderNetMessages == 0 {
		t.Fatal("no BCP messages recorded")
	}
	if res.CentralizedMessages == 0 {
		t.Fatal("no centralized messages computed")
	}
	// The paper claims >= one order of magnitude; at our scale we require a
	// clear multiple.
	if res.Ratio < 2 {
		t.Fatalf("centralized/spidernet ratio %.2f too small", res.Ratio)
	}
}
