package experiment

import "testing"

// stressBySA indexes the sweep's points by (scenario, alg).
func stressBySA(r StressResult) map[string]map[string]StressPoint {
	out := make(map[string]map[string]StressPoint)
	for _, p := range r.Points {
		if out[p.Scenario] == nil {
			out[p.Scenario] = make(map[string]StressPoint)
		}
		out[p.Scenario][p.Alg] = p
	}
	return out
}

// TestStressGates enforces the acceptance criteria of the adversarial
// sweep: under every scenario SpiderNet's success ratio is at least each
// strawman's (random, greedy), and its setup-latency p99 stays bounded even
// under the flash crowd and the churn storm.
func TestStressGates(t *testing.T) {
	res := stressDefault().res
	t.Logf("\n%s", res.Table.String())
	pts := stressBySA(res)
	if len(pts) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(pts))
	}
	for name, byAlg := range pts {
		if len(byAlg) != len(stressAlgs) {
			t.Fatalf("scenario %s: got %d algorithms, want %d", name, len(byAlg), len(stressAlgs))
		}
		sn := byAlg["spidernet"]
		if sn.Offered == 0 {
			t.Fatalf("scenario %s: no requests offered", name)
		}
		for _, strawman := range []string{"random", "greedy"} {
			if sn.Success < byAlg[strawman].Success {
				t.Errorf("scenario %s: spidernet success %.3f below %s %.3f",
					name, sn.Success, strawman, byAlg[strawman].Success)
			}
		}
		if sn.Success == 0 {
			t.Errorf("scenario %s: spidernet composed nothing", name)
		}
	}
	// The latency gate: p99 setup under adversity stays within the probing
	// SLA — one collect window (~2.5 s soft timeout) plus the reverse ACK
	// and queueing, with headroom but no room for retry storms or a second
	// collect round.
	for _, name := range []string{"flash", "churnstorm"} {
		p99 := pts[name]["spidernet"].SetupP99
		if p99 <= 0 || p99 > 4000 {
			t.Errorf("scenario %s: spidernet setup p99 %.1f ms outside (0, 4000]", name, p99)
		}
	}
	// The flash crowd must actually surge offered load above the flat
	// scenarios' schedule, or the stress is fake.
	if pts["flash"]["spidernet"].Offered <= pts["zipf"]["spidernet"].Offered {
		t.Errorf("flash crowd offered %d requests, base zipf %d — no surge",
			pts["flash"]["spidernet"].Offered, pts["zipf"]["spidernet"].Offered)
	}
	// The churn storm must kill peers: some arrivals lose their source and
	// are skipped, so fewer requests are offered than under the flat tail.
	if pts["churnstorm"]["spidernet"].Offered >= pts["zipf"]["spidernet"].Offered {
		t.Errorf("churn storm offered %d requests, base zipf %d — nobody died",
			pts["churnstorm"]["spidernet"].Offered, pts["zipf"]["spidernet"].Offered)
	}
	// Shedding is the load-aware plane's pressure valve; the heavy-tailed
	// scenarios are built to trip it on the spidernet cells only.
	shed := int64(0)
	for name, byAlg := range pts {
		shed += byAlg["spidernet"].Shed
		for alg, p := range byAlg {
			if alg != "spidernet" && p.Shed != 0 {
				t.Errorf("scenario %s: %s shed %d probes; only spidernet sheds", name, alg, p.Shed)
			}
		}
	}
	if shed == 0 {
		t.Error("no scenario tripped overload shedding; the sweep is not stressing the load plane")
	}
}
