package experiment

import (
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// OverheadConfig parameterizes the BCP-vs-centralized overhead comparison
// behind the paper's claim that SpiderNet needs "more than one order of
// magnitude less overhead" than a global-view scheme (§6.1).
type OverheadConfig struct {
	// World's Parallel is accepted for uniformity with the other figures; the
	// overhead comparison is a single cell, so it never spawns workers.
	World
	// Requests is the composition workload over the measurement window.
	Requests int
	// Window is the measurement duration.
	Window time.Duration
	// UpdatePeriod is how often every peer refreshes its state at the
	// centralized coordinator (global views go stale quickly in a dynamic
	// P2P network, so short periods are required for comparable accuracy).
	UpdatePeriod time.Duration
	// Budget is BCP's probing budget per request.
	Budget int
}

// DefaultOverheadConfig returns the laptop-scale configuration.
func DefaultOverheadConfig() OverheadConfig {
	return OverheadConfig{
		World:        World{Sweep: Sweep{Seed: 1}, IPNodes: 1200, Peers: 120, Functions: 30},
		Requests:     60,
		Window:       2 * time.Minute,
		UpdatePeriod: 10 * time.Second,
		Budget:       20,
	}
}

// PaperOverheadConfig uses the paper's network dimensions.
func PaperOverheadConfig() OverheadConfig {
	c := DefaultOverheadConfig()
	c.IPNodes = 10000
	c.Peers = 1000
	c.Functions = 200
	c.Requests = 200
	return c
}

// OverheadResult compares message overheads.
type OverheadResult struct {
	// SpiderNetMessages counts every control message BCP-based composition
	// sent during the window (probes, discovery lookups, ACKs, results).
	SpiderNetMessages int64
	// MaintenanceMessages counts what keeping the composed sessions and
	// their backups alive cost on top (rec.*: one walk per session per
	// interval; nothing fails in this run).
	MaintenanceMessages int64
	// CentralizedMessages counts the global-view scheme's cost over the
	// same window: periodic state updates from every peer plus one
	// request/response pair per composition.
	CentralizedMessages int64
	Ratio               float64
	Table               *metrics.Table
}

// Overhead measures SpiderNet's total control-message count for a
// composition workload and compares it against the centralized scheme's
// periodic global state maintenance over the same window.
func Overhead(cfg OverheadConfig) OverheadResult {
	opts := cfg.options(cfg.Trace)
	rc := recovery.DefaultConfig()
	opts.Recovery = &rc
	c := cluster.New(opts)
	gen := workload.NewGenerator(workload.Config{
		Catalog:     opts.Catalog,
		Peers:       cfg.Peers,
		MinFuncs:    2,
		MaxFuncs:    3,
		Budget:      cfg.Budget,
		DelayReqMin: 2000,
		DelayReqMax: 5000,
	}, newRng(cfg.Seed+700))

	arrivalRng := newRng(cfg.Seed + 800)
	for i := 0; i < cfg.Requests; i++ {
		req := gen.Next()
		at := time.Duration(arrivalRng.Float64() * float64(cfg.Window))
		c.Sim.Schedule(at, func() {
			p := c.Peers[int(req.Source)]
			p.Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					// Long-lived sessions: maintained through the window.
					p.Recovery.Establish(req, res)
					c.Sim.Schedule(cfg.Window, func() { p.Recovery.Close(req.ID) })
				}
			})
		})
	}
	c.Sim.Run(cfg.Window + 30*time.Second)

	st := c.Net.Stats()
	var maintenance int64
	for typ, n := range st.ByType {
		if strings.HasPrefix(typ, "rec.") {
			maintenance += n
		}
	}
	spider := st.MessagesSent - maintenance
	discovery := st.ByType[dht.MsgRoute] + st.ByType[dht.MsgGetResp]
	periods := int64(cfg.Window / cfg.UpdatePeriod)
	central := periods*int64(baselines.CentralizedOverheadPerPeriod(cfg.Peers)) +
		2*int64(cfg.Requests)

	ratio := 0.0
	if spider > 0 {
		ratio = float64(central) / float64(spider)
	}
	t := metrics.NewTable("Overhead: centralized global-view maintenance vs. BCP probing",
		"scheme", "messages", "requests", "window")
	t.AddRow("spidernet (BCP)", spider, cfg.Requests, cfg.Window)
	t.AddRow("  of which discovery (DHT)", discovery, "", "")
	t.AddRow("session maintenance (rec.*)", maintenance, "", "")
	t.AddRow("centralized", central, cfg.Requests, cfg.Window)
	t.AddRow("ratio (centralized/spidernet)", ratio, "", "")
	return OverheadResult{
		SpiderNetMessages:   spider,
		MaintenanceMessages: maintenance,
		CentralizedMessages: central,
		Ratio:               ratio,
		Table:               t,
	}
}
