package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/obs"
)

// federateTestConfig shrinks DefaultFederateConfig to a quick 2×1×3 sweep
// that still exercises a crash and a partition scenario.
func federateTestConfig() FederateConfig {
	cfg := DefaultFederateConfig()
	cfg.Peers = 48
	cfg.IPNodes = 300
	cfg.Requests = 16
	cfg.Domains = []int{2, 3}
	cfg.Gateways = []int{1}
	cfg.Scenarios = []string{"none", "partition", "gwcrash"}
	cfg.Window = 12 * time.Second
	cfg.Hold = 8 * time.Second
	cfg.Life = 8 * time.Second
	return cfg
}

// TestFederateHealthyCellsSucceed pins the headline acceptance claims: with
// no faults injected, cross-domain compositions succeed, the sweep actually
// contains cross-domain work, commits happen, and — in every cell, faulted or
// not — no reservation is orphaned. At the test config every cell's 2PC
// ledger balances too, crash cells included; the default sweep's crash cells
// lose a gateway with prepares still open, so the balance is held there only
// where every agent survives. The loss cells run on the wire their fault plan
// hardened: a lost probe is retransmitted, so its termination credit arrives
// and a commit's median stays under the shortest collection window a
// one-function segment can sit out.
func TestFederateHealthyCellsSucceed(t *testing.T) {
	res := federateDefault().res
	if len(res.Points) != 20 {
		t.Fatalf("sweep produced %d cells, want 20", len(res.Points))
	}
	small := Federate(federateTestConfig())
	if len(small.Points) != 6 {
		t.Fatalf("test-config sweep produced %d cells, want 6", len(small.Points))
	}
	for i, p := range append(small.Points, res.Points...) {
		if p.Orphans != 0 {
			t.Errorf("cell %d/%d/%s: %d orphaned reservations", p.Domains, p.Gateways, p.Scenario, p.Orphans)
		}
		testCfg := i < len(small.Points)
		if (testCfg || !strings.HasSuffix(p.Scenario, "crash")) && p.Prepares != p.Commits+p.Aborts {
			t.Errorf("cell %d/%d/%s: ledger does not balance: %d prepares, %d commits, %d aborts",
				p.Domains, p.Gateways, p.Scenario, p.Prepares, p.Commits, p.Aborts)
		}
		if window := bcp.CollectTimeout + bcp.CollectPerHop; !testCfg && p.Scenario == "loss=0.1" &&
			p.CommitP50 >= float64(window.Milliseconds()) {
			t.Errorf("cell %d/%d/%s: commit p50 %.0f ms, want under the %v collection window",
				p.Domains, p.Gateways, p.Scenario, p.CommitP50, window)
		}
		if p.Scenario != "none" {
			continue
		}
		if p.XDomainShare == 0 {
			t.Errorf("cell %d/%d/none: workload never crossed domains", p.Domains, p.Gateways)
		}
		if p.XDomainSuccess < 0.5 {
			t.Errorf("cell %d/%d/none: cross-domain success %.2f, want >= 0.5", p.Domains, p.Gateways, p.XDomainSuccess)
		}
		if p.Commits == 0 {
			t.Errorf("cell %d/%d/none: no commits on a healthy cluster", p.Domains, p.Gateways)
		}
		if p.CommitP50 <= 0 {
			t.Errorf("cell %d/%d/none: commit p50 %.2f ms, want positive", p.Domains, p.Gateways, p.CommitP50)
		}
	}
	// Trace invariants hold in every scenario (crash scenarios rely on the
	// net.down excusal). Checked one cell at a time: cells replay the same
	// request IDs, so a sweep-wide trace would alias sub-sessions.
	for _, sc := range federateTestConfig().Scenarios {
		cfg := federateTestConfig()
		cfg.Domains, cfg.Gateways, cfg.Scenarios = []int{2}, []int{1}, []string{sc}
		chk := obs.NewChecker()
		cfg.Trace = obs.TracerFunc(chk.Add)
		Federate(cfg)
		for _, v := range chk.Finish() {
			t.Errorf("scenario %s invariant: %s", sc, v)
		}
	}
}
