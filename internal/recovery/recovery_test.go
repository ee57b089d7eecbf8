package recovery_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
)

func catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A' + i))
	}
	return out
}

func newCluster(seed int64, rc recovery.Config) *cluster.Cluster {
	return cluster.New(cluster.Options{
		Seed: seed, Peers: 80, Catalog: catalog(5), Recovery: &rc,
	})
}

func makeReq(c *cluster.Cluster, id uint64, nfuncs, budget int) *service.Request {
	fns := c.FunctionsByReplicas()
	fg := fgraph.Linear(fns[:nfuncs]...)
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	q := qos.Unbounded()
	q[qos.Delay] = 5000
	return &service.Request{
		ID: id, FGraph: fg, QoSReq: q, Res: res, Bandwidth: 50,
		FailReq: 0.02,
		Source:  p2p.NodeID(0), Dest: p2p.NodeID(1), Budget: budget,
	}
}

// establish composes and registers a session at the source's manager.
func establish(t *testing.T, c *cluster.Cluster, req *service.Request) *recovery.Session {
	t.Helper()
	var sess *recovery.Session
	src := c.Peers[int(req.Source)]
	src.Engine.Compose(req, func(r bcp.Result) {
		if !r.Ok {
			t.Fatal("composition failed")
		}
		sess = src.Recovery.Establish(req, r)
	})
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if sess == nil {
		t.Fatal("session not established")
	}
	return sess
}

func TestEstablishMaintainsBackups(t *testing.T) {
	c := newCluster(30, recovery.DefaultConfig())
	sess := establish(t, c, makeReq(c, 1, 3, 60))
	if len(sess.Backups) == 0 {
		t.Fatal("no backups maintained despite generous budget")
	}
	if len(sess.Backups) > recovery.DefaultConfig().MaxBackups {
		t.Fatalf("too many backups: %d", len(sess.Backups))
	}
	for _, b := range sess.Backups {
		if b.Key() == sess.Active.Key() {
			t.Fatal("active graph selected as its own backup")
		}
	}
}

func TestSwitchoverOnPeerFailure(t *testing.T) {
	mem := &obs.MemSink{}
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{Seed: 31, Peers: 80, Catalog: catalog(5), Recovery: &rc, Trace: mem})
	req := makeReq(c, 2, 3, 60)
	sess := establish(t, c, req)
	if len(sess.Backups) == 0 {
		t.Skip("no backups found; cannot exercise switchover")
	}

	// Fail a peer hosting an active component (not source or dest).
	var victim p2p.NodeID = p2p.NoNode
	for _, s := range sess.Active.Comps {
		if s.Comp.Peer != req.Source && s.Comp.Peer != req.Dest {
			victim = s.Comp.Peer
			break
		}
	}
	if victim == p2p.NoNode {
		t.Skip("no failable component peer")
	}
	c.Net.Fail(victim)
	c.Sim.Run(c.Sim.Now() + 60*time.Second)

	mgr := c.Peers[int(req.Source)].Recovery
	st := mgr.Stats()
	if st.FailuresDetected == 0 {
		t.Fatal("failure never detected")
	}
	if st.Switchovers == 0 && st.Reactives == 0 {
		t.Fatalf("failure not recovered: %+v", st)
	}
	s2 := mgr.Session(req.ID)
	if s2 == nil {
		t.Fatal("session died despite recovery options")
	}
	if s2.Active.ContainsPeer(victim) {
		t.Fatal("recovered graph still uses the failed peer")
	}
	// Repairs carry positive recovery times.
	for _, ev := range mem.Events() {
		if (ev.Kind == obs.KindRecSwitchover || ev.Kind == obs.KindRecReactive) && ev.Dur <= 0 {
			t.Fatalf("%s at %v has no recovery time", ev.Kind, ev.TS)
		}
	}
}

func TestNoRecoveryBaselineDies(t *testing.T) {
	cfg := recovery.DefaultConfig()
	cfg.Proactive = false
	c := newCluster(32, cfg)
	req := makeReq(c, 3, 3, 40)
	sess := establish(t, c, req)

	var victim p2p.NodeID = p2p.NoNode
	for _, s := range sess.Active.Comps {
		if s.Comp.Peer != req.Source && s.Comp.Peer != req.Dest {
			victim = s.Comp.Peer
			break
		}
	}
	c.Net.Fail(victim)
	c.Sim.Run(c.Sim.Now() + 60*time.Second)

	mgr := c.Peers[int(req.Source)].Recovery
	if mgr.Session(req.ID) != nil {
		t.Fatal("session survived with recovery disabled")
	}
	st := mgr.Stats()
	if st.Dead != 1 {
		t.Fatalf("dead=%d, want 1", st.Dead)
	}
}

func TestReactiveRecoveryWhenNoBackups(t *testing.T) {
	cfg := recovery.DefaultConfig()
	cfg.MaxBackups = 0 // proactive on, but no backups may be kept
	c := newCluster(33, cfg)
	req := makeReq(c, 4, 2, 40)
	sess := establish(t, c, req)

	var victim p2p.NodeID = p2p.NoNode
	for _, s := range sess.Active.Comps {
		if s.Comp.Peer != req.Source && s.Comp.Peer != req.Dest {
			victim = s.Comp.Peer
			break
		}
	}
	if victim == p2p.NoNode {
		t.Skip("no failable component peer")
	}
	c.Net.Fail(victim)
	c.Sim.Run(c.Sim.Now() + 120*time.Second)

	mgr := c.Peers[int(req.Source)].Recovery
	st := mgr.Stats()
	if st.Reactives == 0 {
		t.Fatalf("expected reactive recovery: %+v", st)
	}
	if s2 := mgr.Session(req.ID); s2 == nil {
		t.Fatal("session not recovered reactively")
	} else if s2.Active.ContainsPeer(victim) {
		t.Fatal("reactive graph reuses failed peer")
	}
}

func TestBackupFailureTriggersReselection(t *testing.T) {
	c := newCluster(34, recovery.DefaultConfig())
	req := makeReq(c, 5, 3, 60)
	sess := establish(t, c, req)
	if len(sess.Backups) == 0 {
		t.Skip("no backups to fail")
	}
	// Fail a peer used by a backup but NOT by the active graph.
	var victim p2p.NodeID = p2p.NoNode
	var victimKey string
	for _, b := range sess.Backups {
		for _, s := range b.Comps {
			p := s.Comp.Peer
			if p != req.Source && p != req.Dest && !sess.Active.ContainsPeer(p) {
				victim, victimKey = p, b.Key()
				break
			}
		}
		if victim != p2p.NoNode {
			break
		}
	}
	if victim == p2p.NoNode {
		t.Skip("all backups fully overlap the active graph")
	}
	c.Net.Fail(victim)
	c.Sim.Run(c.Sim.Now() + 60*time.Second)

	mgr := c.Peers[int(req.Source)].Recovery
	s2 := mgr.Session(req.ID)
	if s2 == nil {
		t.Fatal("session died from a backup failure")
	}
	for _, b := range s2.Backups {
		if b.Key() == victimKey {
			t.Fatal("failed backup still maintained")
		}
	}
	if st := mgr.Stats(); st.Switchovers != 0 {
		t.Fatalf("backup failure caused a switchover: %+v", st)
	}
}

func TestCloseTearsDown(t *testing.T) {
	c := newCluster(35, recovery.DefaultConfig())
	req := makeReq(c, 6, 3, 40)
	sess := establish(t, c, req)
	mgr := c.Peers[int(req.Source)].Recovery
	mgr.Close(sess.ID)
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	for i, p := range c.Peers {
		if got := p.Ledger.HardAllocated(); got != (qos.Resources{}) {
			t.Fatalf("peer %d still holds %v after Close", i, got)
		}
	}
	if mgr.Sessions() != 0 {
		t.Fatal("session still tracked after Close")
	}
}

// --- BackupCount / SelectBackups unit tests on synthetic graphs ---

func synthGraph(reqID uint64, comps ...service.Component) *service.Graph {
	names := make([]string, len(comps))
	for i, c := range comps {
		names[i] = c.Function
	}
	fg := fgraph.Linear(names...)
	g := &service.Graph{Pattern: fg, Comps: make([]service.Snapshot, len(comps))}
	for i, c := range comps {
		var avail qos.Resources
		avail[qos.CPU] = 10
		avail[qos.Memory] = 100
		g.Comps[i] = service.Snapshot{Comp: c, Avail: avail}
	}
	return g
}

func sc(id string, fn string, peer int, fail float64) service.Component {
	return service.Component{ID: id, Function: fn, Peer: p2p.NodeID(peer), FailProb: fail}
}

func TestSelectBackupsCoversBottleneckFirst(t *testing.T) {
	// Active uses A1 (high fail) and B1 (low fail). Pool offers graphs that
	// avoid A1 and graphs that avoid B1. With γ=1, the selected backup must
	// avoid A1, the bottleneck.
	active := synthGraph(1, sc("A1", "a", 1, 0.5), sc("B1", "b", 2, 0.01))
	avoidA := synthGraph(1, sc("A2", "a", 3, 0.1), sc("B1", "b", 2, 0.01))
	avoidB := synthGraph(1, sc("A1", "a", 1, 0.5), sc("B2", "b", 4, 0.1))
	pool := []*service.Graph{avoidB, avoidA}

	got := recovery.SelectBackups(active, pool, 1, false)
	if len(got) != 1 {
		t.Fatalf("selected %d backups, want 1", len(got))
	}
	if got[0].Contains("A1") {
		t.Fatal("backup does not cover the bottleneck component")
	}
}

func TestSelectBackupsMaximizesOverlap(t *testing.T) {
	active := synthGraph(1, sc("A1", "a", 1, 0.5), sc("B1", "b", 2, 0.1))
	// Both avoid A1, but one shares B1 with the active graph.
	shared := synthGraph(1, sc("A2", "a", 3, 0.1), sc("B1", "b", 2, 0.1))
	disjoint := synthGraph(1, sc("A3", "a", 4, 0.1), sc("B2", "b", 5, 0.1))
	got := recovery.SelectBackups(active, []*service.Graph{disjoint, shared}, 1, false)
	if len(got) != 1 || got[0].Key() != shared.Key() {
		t.Fatal("overlap-maximizing rule violated")
	}
	// Ablation: the disjoint policy picks the non-overlapping one.
	got = recovery.SelectBackups(active, []*service.Graph{disjoint, shared}, 1, true)
	if len(got) != 1 || got[0].Key() != disjoint.Key() {
		t.Fatal("disjoint policy violated")
	}
}

func TestSelectBackupsNoDuplicatesRespectsGamma(t *testing.T) {
	active := synthGraph(1, sc("A1", "a", 1, 0.3), sc("B1", "b", 2, 0.2))
	var pool []*service.Graph
	for i := 0; i < 6; i++ {
		pool = append(pool, synthGraph(1,
			sc(fmt.Sprintf("A%d", i+2), "a", 10+i, 0.1),
			sc(fmt.Sprintf("B%d", i+2), "b", 20+i, 0.1)))
	}
	for gamma := 0; gamma <= 7; gamma++ {
		got := recovery.SelectBackups(active, pool, gamma, false)
		if len(got) > gamma {
			t.Fatalf("γ=%d but %d selected", gamma, len(got))
		}
		seen := map[string]bool{}
		for _, g := range got {
			if seen[g.Key()] {
				t.Fatal("duplicate backup")
			}
			seen[g.Key()] = true
		}
	}
}

func TestBackupCountFormula(t *testing.T) {
	cfg := recovery.DefaultConfig()
	cfg.U = 1.0
	cfg.MaxBackups = 10
	c := newCluster(36, cfg)
	mgr := c.Peers[0].Recovery

	mk := func(qratio, fprob, freq float64, poolSize int) int {
		var qreq, q qos.Vector
		qreq[qos.Delay] = 100
		q[qos.Delay] = qratio * 100
		comp := sc("X1", "x", 5, fprob)
		g := synthGraph(9, comp)
		g.QoS = q
		req := &service.Request{
			ID: 9, FGraph: g.Pattern, QoSReq: qreq, FailReq: freq, Budget: 1,
		}
		var pool []*service.Graph
		for i := 0; i < poolSize; i++ {
			pool = append(pool, synthGraph(9, sc(fmt.Sprintf("X%d", i+2), "x", 30+i, 0.1)))
		}
		return mgr.BackupCount(&recovery.Session{ID: 9, Req: req, Active: g, Pool: pool})
	}

	// qratio 0.5, F=0.05, Freq=0.05 → U*(0.5+1)=1.5 → γ=1 (pool allows).
	if got := mk(0.5, 0.05, 0.05, 5); got != 1 {
		t.Fatalf("γ=%d, want 1", got)
	}
	// Tight QoS (ratio ~1) and high relative failure → more backups.
	if got := mk(0.9, 0.2, 0.05, 8); got != 4 {
		t.Fatalf("γ=%d, want 4 (0.9+4=4.9 → 4)", got)
	}
	// Capped by C-1 when the pool is small.
	if got := mk(0.9, 0.2, 0.05, 2); got != 2 {
		t.Fatalf("γ=%d, want 2 (pool cap)", got)
	}
	// Never negative / zero when requirements are loose.
	if got := mk(0.1, 0.0, 0.5, 5); got < 0 {
		t.Fatalf("γ=%d negative", got)
	}
}

func TestAvgBackupsReported(t *testing.T) {
	c := newCluster(37, recovery.DefaultConfig())
	req := makeReq(c, 7, 3, 60)
	establish(t, c, req)
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	st := c.Peers[int(req.Source)].Recovery.Stats()
	if st.BackupSamples == 0 {
		t.Fatal("no backup samples recorded")
	}
	if st.AvgBackups() < 0 || st.AvgBackups() > float64(recovery.DefaultConfig().MaxBackups) {
		t.Fatalf("AvgBackups=%v out of range", st.AvgBackups())
	}
}
