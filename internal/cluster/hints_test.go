package cluster_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// TestHintsStayInsideTheirRing: a hint is an address on the ring it was
// learned on, and a segment composes inside one domain, so on a federated
// deployment no lookup — hinted first hop included — is ever handed to a
// member of another domain's ring. Two domains and requests 6 to 8 functions
// deep: a segment's first hops get their successors' lists with the probe, so
// only a segment of three or more functions has hops left that look anything up
// (four domains and 3 to 5 functions gave 50 hinted lookups before lists rode
// along, and give none since).
func TestHintsStayInsideTheirRing(t *testing.T) {
	mem := &obs.MemSink{}
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Options{
		Seed: 5, IPNodes: 600, Peers: 120, Catalog: catalog(12),
		Domains: &federation.Spec{Domains: 2, Gateways: 2}, Trace: mem, Obs: reg,
	})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog(12), Peers: 120, MinFuncs: 6, MaxFuncs: 8, Budget: 12,
	}, c.Rng)
	composed := 0
	for i := 0; i < 30; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*time.Second, func() {
			c.Peers[int(req.Source)].Fed.Compose(req, func(res federation.Result) {
				if res.Ok {
					composed++
				}
			})
		})
	}
	c.Sim.Run(30*time.Second + c.Fed.Cfg.Drain())

	tot := reg.Totals()
	t.Logf("%d sessions composed, %d lookups, %d hinted, %d lists carried", composed, tot.DiscLookups, tot.DiscHinted, tot.DiscCarried)
	if composed == 0 || tot.DiscHinted < 20 || tot.DiscCarried == 0 {
		t.Fatal("the run exercised too little")
	}
	plan := c.Plan()
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindDHTHop && ev.Note == "get" && plan.Of(ev.Node) != plan.Of(ev.Peer) {
			t.Fatalf("peer %d (domain %d) handed a lookup to peer %d (domain %d)",
				ev.Node, plan.Of(ev.Node), ev.Peer, plan.Of(ev.Peer))
		}
	}
}

// TestDiscoveryMessageBudget is scripts/ci.sh's message gate: one pinned
// small cell whose DHT traffic per composed session and routed hops per
// hop-origin lookup must stay under ceilings set 10 % above what the cell
// measures (18.4 messages, 0.99 hops). A change that silently stops a source's
// probes carrying its lists reads 34.6 messages here, one that stops concurrent
// lookups of one function joining 33.4 (the parent, doing neither, read 45.4), and one that stops hinting
// 1.67 hops — and fails CI, not the next benchmark run.
func TestDiscoveryMessageBudget(t *testing.T) {
	const maxDHTPerSession, maxHopsPerHopLookup = 20.2, 1.09
	mem := &obs.MemSink{}
	c := cluster.New(cluster.Options{Seed: 3, IPNodes: 600, Peers: 120, Catalog: catalog(12), Trace: mem})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog(12), Peers: 120, MinFuncs: 3, MaxFuncs: 5, Budget: 12,
	}, c.Rng)
	before := c.Net.Stats()
	composed := 0
	for i := 0; i < 40; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*time.Second, func() {
			c.Peers[int(req.Source)].Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					composed++
				}
			})
		})
	}
	c.Sim.Run(2 * time.Minute)
	if composed < 30 {
		t.Fatalf("only %d of 40 requests composed", composed)
	}

	after := c.Net.Stats()
	msgs := float64(after.ByType[dht.MsgRoute]+after.ByType[dht.MsgGetResp]-
		before.ByType[dht.MsgRoute]-before.ByType[dht.MsgGetResp]) / float64(composed)
	// A request's lookups are its source's until disc.done, its hops' after.
	discovered := make(map[uint64]bool)
	lookups, hops := 0, 0
	for _, ev := range mem.Events() {
		switch {
		case ev.Kind == obs.KindDiscDone:
			discovered[ev.Req] = true
		case ev.Kind == obs.KindDHTDeliver && ev.Note == "get" && discovered[ev.Req]:
			lookups++
			hops += ev.Hops
		}
	}
	perLookup := float64(hops) / float64(lookups)
	t.Logf("%d sessions: %.1f DHT messages per session, %d hop-origin lookups at %.2f routed hops", composed, msgs, lookups, perLookup)
	if msgs > maxDHTPerSession || perLookup > maxHopsPerHopLookup {
		t.Fatalf("DHT messages per session %.1f (ceiling %.1f), hops per hop-origin lookup %.2f (ceiling %.2f)",
			msgs, maxDHTPerSession, perLookup, maxHopsPerHopLookup)
	}
}

// TestMaintenanceMessageBudget is the message gate's other half: one pinned
// small cell with recovery on and nothing failing, whose rec.* traffic per
// session-interval (one session through one maintenance period) must stay
// under a ceiling set 10 % above what the cell measures (7.02 messages at 4.18 backups).
// A prober that walks the active graph and every backup end to end each
// interval reads 25.79 here and fails CI, not the next benchmark run.
func TestMaintenanceMessageBudget(t *testing.T) {
	const maxPerSessionInterval = 7.72
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{Seed: 3, IPNodes: 600, Peers: 120, Catalog: catalog(12), Recovery: &rc})
	gen := workload.NewGenerator(workload.Config{
		Catalog: catalog(12), Peers: 120, MinFuncs: 3, MaxFuncs: 5, Budget: 20,
		DelayReqMin: 4000, DelayReqMax: 8000, FailReq: 0.02,
	}, c.Rng)
	for i := 0; i < 40; i++ {
		req := gen.Next()
		c.Sim.Schedule(time.Duration(i)*time.Second, func() {
			p := c.Peers[int(req.Source)]
			p.Engine.Compose(req, func(res bcp.Result) {
				if res.Ok {
					p.Recovery.Establish(req, res)
				}
			})
		})
	}
	c.Sim.Run(2 * time.Minute)

	var msgs int64
	for typ, n := range c.Net.Stats().ByType {
		if strings.HasPrefix(typ, "rec.") {
			msgs += n
		}
	}
	st := c.RecoveryStats()
	if st.BackupSamples < 1000 || st.AvgBackups() < 1.5 || st.FailuresDetected != 0 {
		t.Fatalf("the cell exercised too little, or something failed: %+v", st)
	}
	per := float64(msgs) / float64(st.BackupSamples)
	t.Logf("%d session-intervals at %.2f backups: %.2f rec.* messages each", st.BackupSamples, st.AvgBackups(), per)
	if per > maxPerSessionInterval {
		t.Fatalf("%.2f rec.* messages per session-interval, ceiling %.2f", per, maxPerSessionInterval)
	}
}
