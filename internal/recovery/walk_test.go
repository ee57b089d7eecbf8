package recovery_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// graphPeers lists the distinct peers of g in its topological order.
func graphPeers(g *service.Graph) []p2p.NodeID {
	var out []p2p.NodeID
	for _, fn := range g.Pattern.TopoOrder() {
		if p := g.Comps[fn].Comp.Peer; !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

func usesAny(g *service.Graph, peers []p2p.NodeID) bool {
	return slices.ContainsFunc(peers, g.ContainsPeer)
}

// recMsgs counts the maintenance walk's messages sent so far.
func recMsgs(c *cluster.Cluster) int64 {
	st := c.Net.Stats()
	return st.ByType[recovery.MsgProbe] + st.ByType[recovery.MsgPong]
}

// TestWalkVisitsEveryPeerOnce is the walk's property test. Over random
// sessions on a cluster small enough that one peer often hosts several of a
// session's components — linear chains, diamonds, commutation variants — the
// full walk lists every peer of active ∪ backups exactly once with the
// active graph's peers first in topological order, a re-run plans the same
// walks, and an interval costs exactly stops + 1 messages: the full walk on
// a session's first interval and every BackupEvery-th after, the active
// graph's stretch otherwise.
func TestWalkVisitsEveryPeerOnce(t *testing.T) {
	run := func() (walks [][]p2p.NodeID) {
		rc := recovery.DefaultConfig()
		c := cluster.New(cluster.Options{Seed: 41, IPNodes: 300, Peers: 24, Catalog: catalog(6), MinComps: 2, MaxComps: 4, Recovery: &rc})
		gen := workload.NewGenerator(workload.Config{
			Catalog: catalog(6), Peers: 24, MinFuncs: 2, MaxFuncs: 5, Budget: 40,
			DAGProb: 0.5, CommuteProb: 0.5, DelayReqMin: 4000, DelayReqMax: 8000, FailReq: 0.02,
		}, rand.New(rand.NewSource(41)))
		shared := 0
		for i := 0; i < 30; i++ {
			req := gen.Next()
			mgr := c.Peers[int(req.Source)].Recovery
			var sess *recovery.Session
			c.Peers[int(req.Source)].Engine.Compose(req, func(r bcp.Result) {
				if r.Ok {
					sess = mgr.Establish(req, r)
				}
			})
			for sess == nil && c.Sim.Now() < time.Duration(i+1)*time.Minute {
				c.Sim.Run(c.Sim.Now() + 100*time.Millisecond)
			}
			if sess == nil {
				continue
			}
			// Establish armed the timer less than 100 ms ago: every interval
			// measured below starts 100–200 ms before a tick.
			c.Sim.Run(c.Sim.Now() + recovery.ProbeInterval - 200*time.Millisecond)
			peers, active := recovery.WalkPeers(sess)
			walks = append(walks, peers)

			want := graphPeers(sess.Active)
			if !slices.Equal(peers[:active], want) {
				t.Fatalf("session %d: active stretch %v, want the active graph's peers in topological order %v", req.ID, peers[:active], want)
			}
			if len(want) < len(sess.Active.Comps) {
				shared++
			}
			for _, b := range sess.Backups {
				for _, p := range graphPeers(b) {
					if !slices.Contains(want, p) {
						want = append(want, p)
					}
				}
			}
			sorted := slices.Clone(peers)
			slices.Sort(sorted)
			if len(slices.Compact(sorted)) != len(peers) {
				t.Fatalf("session %d: walk %v lists a peer twice", req.ID, peers)
			}
			slices.Sort(want)
			if !slices.Equal(sorted, want) {
				t.Fatalf("session %d: walk covers %v, active ∪ backups is %v", req.ID, sorted, want)
			}

			for k := 0; k < 2*recovery.BackupEvery; k++ {
				stops := active
				if k%recovery.BackupEvery == 0 {
					stops = len(peers)
				}
				before := recMsgs(c)
				c.Sim.Run(c.Sim.Now() + recovery.ProbeInterval)
				if got := recMsgs(c) - before; got != int64(stops)+1 {
					t.Fatalf("session %d interval %d: %d walk messages, want %d stops + 1", req.ID, k, got, stops)
				}
			}
			mgr.Close(sess.ID)
			c.Sim.Run(c.Sim.Now() + 2*recovery.ProbeInterval) // let the timer lapse
		}
		if len(walks) < 20 || shared == 0 {
			t.Fatalf("%d sessions established, %d with two components on one peer: the property was not exercised", len(walks), shared)
		}
		return walks
	}
	first, second := run(), run()
	if !slices.EqualFunc(first, second, slices.Equal[[]p2p.NodeID]) {
		t.Fatal("the same seed planned different walks on a re-run")
	}
}

// TestWalkUnderDuplication: with every message duplicated on every link,
// which hardens the engines, the copies of one walk share one object at
// every stop. Each stop still checks
// its own components — a pong reports missing exactly those of its stops'
// components their peers no longer host — and every pong carries every
// stop's availability. A component only a backup uses goes missing halfway,
// between two walks.
func TestWalkUnderDuplication(t *testing.T) {
	c := newCluster(30, recovery.DefaultConfig())
	req := makeReq(c, 1, 3, 60)
	sess := establish(t, c, req)
	mgr := c.Peers[int(req.Source)].Recovery
	var lost service.Component
	for _, b := range sess.Backups {
		for _, comp := range b.Components() {
			if !sess.Active.Contains(comp.ID) {
				lost = comp
			}
		}
	}
	if lost.ID == "" {
		t.Fatal("every backup component is also in the active graph")
	}

	pongs, full, reported := 0, 0, 0
	recovery.TapPongs(mgr, func(p recovery.Pong) {
		pongs++
		if _, active := recovery.WalkPeers(sess); len(p.Peers) > active {
			full++
		}
		var want []string
		for i, peer := range p.Peers {
			eng := c.Peers[int(peer)].Engine
			if got, avail := p.Avail[i], eng.Ledger().AvailableHard(); got != avail {
				t.Errorf("pong %d: stop %d (peer %d) reported %v, its ledger has %v available", pongs, i, peer, got, avail)
			}
			for _, id := range p.Comps[i] {
				if eng.LocalComponent(id) == nil {
					want = append(want, id)
				}
			}
		}
		got := p.Missing
		slices.Sort(got)
		got = slices.Compact(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("pong %d reports %v missing, its stops no longer host %v", pongs, got, want)
		}
		if slices.Contains(got, lost.ID) {
			reported++
		}
	})
	c.ApplyFaults(simnet.FaultPlan{Seed: 1, Default: simnet.LinkFaults{Dup: 1}})
	c.Sim.Run(c.Sim.Now() + 2*recovery.BackupEvery*recovery.ProbeInterval)
	if pongs == 0 || full == 0 {
		t.Fatalf("%d pongs, %d of full walks: the walk was not exercised", pongs, full)
	}

	// Every copy of a walk rides the same delays, so one pongTimeout after a
	// walk left nothing is in flight.
	for walks := mgr.Stats().Walks; mgr.Stats().Walks == walks; {
		c.Sim.Run(c.Sim.Now() + 10*time.Millisecond)
	}
	c.Sim.Run(c.Sim.Now() + 1500*time.Millisecond)
	unhost(c, lost)
	c.Sim.Run(c.Sim.Now() + (recovery.BackupEvery+1)*recovery.ProbeInterval)
	if reported == 0 {
		t.Fatalf("no pong reported %s missing", lost.ID)
	}
	if st := mgr.Stats(); st.FailuresDetected != 0 || st.Localizations != 0 {
		t.Fatalf("duplicated walks failed the session or sent pings: %+v", st)
	}
	for _, b := range sess.Backups {
		if b.Contains(lost.ID) {
			t.Errorf("backup %v still maintained without %s", b, lost.ID)
		}
	}
}

// TestLocalizationMatchesGroundTruth: random peers of a session's graphs
// fail at once. When maintenance has settled, what the source believes must
// be what Net.Alive says: a graph it was handed is gone iff one of its peers
// is down (for pool graphs: one the source had reason to ping), and the
// active graph was declared failed iff it used such a peer.
func TestLocalizationMatchesGroundTruth(t *testing.T) {
	checked := 0
	for seed := int64(50); seed < 62; seed++ {
		c := newCluster(seed, recovery.DefaultConfig())
		req := makeReq(c, uint64(seed), 3, 60)
		sess := establish(t, c, req)
		mgr := c.Peers[int(req.Source)].Recovery
		active, pool := sess.Active, slices.Clone(sess.Pool)
		walked, _ := recovery.WalkPeers(sess)

		rng := rand.New(rand.NewSource(seed))
		var down []p2p.NodeID
		for _, p := range walked {
			if p != req.Source && p != req.Dest && rng.Intn(3) == 0 {
				c.Net.Fail(p)
				down = append(down, p)
			}
		}
		c.Sim.Run(c.Sim.Now() + 40*time.Second)
		st := mgr.Stats()
		if st.Reactives > 0 || len(down) == 0 {
			continue // the pool was replaced wholesale, or nothing failed
		}
		checked++
		for _, p := range c.Peers {
			if !c.Net.Alive(p.Node.ID()) != slices.Contains(down, p.Node.ID()) {
				t.Fatalf("seed %d: ground truth drifted for peer %d", seed, p.Node.ID())
			}
		}
		if want := usesAny(active, down); (st.FailuresDetected == 1) != want || st.FailuresDetected > 1 {
			t.Errorf("seed %d: %d failures declared, active graph on a dead peer: %v", seed, st.FailuresDetected, want)
		}
		s := mgr.Session(req.ID)
		if s == nil {
			t.Fatalf("seed %d: session lost with live backups around", seed)
		}
		held := append([]*service.Graph{s.Active}, s.Pool...)
		for _, g := range append([]*service.Graph{active}, pool...) {
			if kept, dead := slices.Contains(held, g), usesAny(g, down); kept == dead {
				t.Errorf("seed %d: graph %v kept=%v but on a dead peer=%v (down %v)", seed, g, kept, dead, down)
			}
		}
		for _, b := range s.Backups {
			if !slices.Contains(s.Pool, b) {
				t.Errorf("seed %d: backup %v is not in the pool", seed, b)
			}
		}
	}
	if checked < 6 {
		t.Fatalf("only %d of 12 seeds exercised localization", checked)
	}
}

// TestStaggeredFailureSkipsDeadBackup: a peer only a backup uses dies just
// after a full walk, a peer of the active graph dies three seconds later —
// before the backups' next turn, so no walk has met the dead backup. The
// localization pings find both; the switchover goes straight to a live
// backup, inside a second, and no bcp.ack is ever sent toward the dead.
func TestStaggeredFailureSkipsDeadBackup(t *testing.T) {
	mem := &obs.MemSink{}
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{Seed: 31, Peers: 80, Catalog: catalog(5), Recovery: &rc, Trace: mem})
	req := makeReq(c, 2, 3, 60)
	var established time.Duration
	src := c.Peers[int(req.Source)]
	var sess *recovery.Session
	src.Engine.Compose(req, func(r bcp.Result) {
		if r.Ok {
			sess, established = src.Recovery.Establish(req, r), c.Sim.Now()
		}
	})
	// Walks leave at established + k·ProbeInterval, k ≥ 1; full ones at
	// k = 1, 1 + BackupEvery, ... Stop 0.9 s after the second full walk.
	c.Sim.Run(established + time.Duration(1+recovery.BackupEvery)*recovery.ProbeInterval + 900*time.Millisecond)
	if sess == nil {
		t.Fatal("session not established")
	}
	peers, active := recovery.WalkPeers(sess)
	var backupOnly, activePeer p2p.NodeID = p2p.NoNode, p2p.NoNode
	for i, p := range peers {
		switch {
		case p == req.Source || p == req.Dest:
		case i >= active:
			backupOnly = p
		case activePeer == p2p.NoNode:
			activePeer = p
		}
	}
	if backupOnly == p2p.NoNode || activePeer == p2p.NoNode || len(sess.Backups) < 2 {
		t.Skipf("walk %v (active %d, %d backups) cannot stage the failure", peers, active, len(sess.Backups))
	}
	c.Net.Fail(backupOnly)
	c.Sim.Run(c.Sim.Now() + 3*time.Second)
	c.Net.Fail(activePeer)
	c.Sim.Run(c.Sim.Now() + 30*time.Second)

	st := src.Recovery.Stats()
	if st.FailuresDetected != 1 || st.Switchovers != 1 || st.Reactives != 0 {
		t.Fatalf("want one failure repaired by one switchover: %+v", st)
	}
	if s := src.Recovery.Session(req.ID); s == nil || s.Active.ContainsPeer(backupOnly) || s.Active.ContainsPeer(activePeer) {
		t.Fatal("the session is gone or runs on a dead peer")
	}
	for _, ev := range mem.Events() {
		switch {
		case ev.Kind == obs.KindNetDrop && ev.Note == bcp.MsgAck:
			t.Errorf("bcp.ack sent toward dead peer %d at %v", ev.Peer, ev.TS)
		case ev.Kind == obs.KindRecSwitchover && ev.Dur >= time.Second:
			t.Errorf("%s took %v, want under a second", ev.Kind, ev.Dur)
		}
	}
}

// TestMissingComponentReportedByPong: a live peer that no longer hosts a
// component answers the walk and says so; the source fails exactly the
// graphs that contain the component, without a ping and without waiting out
// a deadline.
func TestMissingComponentReportedByPong(t *testing.T) {
	c := newCluster(30, recovery.DefaultConfig())
	req := makeReq(c, 1, 3, 60)
	sess := establish(t, c, req)
	mgr := c.Peers[int(req.Source)].Recovery

	var lost service.Component
	for _, b := range sess.Backups {
		for _, comp := range b.Components() {
			if !sess.Active.Contains(comp.ID) {
				lost = comp
			}
		}
	}
	if lost.ID == "" {
		t.Skip("every backup component is also in the active graph")
	}
	pool := slices.Clone(sess.Pool)
	unhost(c, lost)
	c.Sim.Run(c.Sim.Now() + time.Duration(recovery.BackupEvery+1)*recovery.ProbeInterval)
	if st := mgr.Stats(); st.FailuresDetected != 0 || st.Localizations != 0 {
		t.Fatalf("a backup's missing component failed the session or sent pings: %+v", st)
	}
	for _, g := range pool {
		if kept := slices.Contains(sess.Pool, g); kept == g.Contains(lost.ID) {
			t.Errorf("graph %v kept=%v, contains the missing %s=%v", g, kept, lost.ID, !kept)
		}
	}
	for _, b := range sess.Backups {
		if b.Contains(lost.ID) {
			t.Errorf("backup %v still maintained without %s", b, lost.ID)
		}
	}
	if len(sess.Backups) == 0 {
		t.Skip("no backup left to switch to")
	}

	lost = sess.Active.Components()[1]
	unhost(c, lost)
	c.Sim.Run(c.Sim.Now() + 2*recovery.ProbeInterval)
	st := mgr.Stats()
	if st.FailuresDetected != 1 || st.Switchovers != 1 || st.Localizations != 0 {
		t.Fatalf("want the active graph failed by the pong and switched over: %+v", st)
	}
	if sess.Active.Contains(lost.ID) || !c.Net.Alive(lost.Peer) {
		t.Fatalf("active graph still contains %s, or its peer died", lost.ID)
	}
	for _, g := range sess.Pool {
		if g.Contains(lost.ID) {
			t.Errorf("pool graph %v still contains the missing %s", g, lost.ID)
		}
	}
}

// TestRecoveredSourceMonitorsAgain: a failed node's timers never fire, so a
// source that crashed must re-arm its maintenance timer when it establishes
// a session after coming back — it used to stay armed for ever, and
// sessions at a recovered source were never probed.
func TestRecoveredSourceMonitorsAgain(t *testing.T) {
	c := newCluster(31, recovery.DefaultConfig())
	establish(t, c, makeReq(c, 1, 3, 60))
	c.Net.Fail(0)
	c.Sim.Run(c.Sim.Now() + 10*time.Second)
	c.Net.Recover(0)
	req := makeReq(c, 2, 3, 60)
	sess := establish(t, c, req)

	var victim p2p.NodeID = p2p.NoNode
	for _, s := range sess.Active.Comps {
		if s.Comp.Peer != req.Source && s.Comp.Peer != req.Dest {
			victim = s.Comp.Peer
		}
	}
	if victim == p2p.NoNode {
		t.Skip("no failable component peer")
	}
	c.Net.Fail(victim)
	c.Sim.Run(c.Sim.Now() + 60*time.Second)
	if st := c.Peers[0].Recovery.Stats(); st.FailuresDetected == 0 {
		t.Fatalf("a session established after the source recovered is not monitored: %+v", st)
	}
}

// TestBriefOutageDoesNotStopMonitoring: the source crashes just after a tick
// and is back 200 ms later — its pending timer is lost, yet the time it was
// due has not passed when the next session is established. Maintenance must
// go on all the same.
func TestBriefOutageDoesNotStopMonitoring(t *testing.T) {
	c := newCluster(31, recovery.DefaultConfig())
	src := c.Peers[0]
	var first time.Duration
	var held bcp.Result
	req1, req2 := makeReq(c, 1, 3, 60), makeReq(c, 2, 3, 60)
	src.Engine.Compose(req1, func(r bcp.Result) {
		if r.Ok {
			src.Recovery.Establish(req1, r)
			first = c.Sim.Now()
		}
	})
	src.Engine.Compose(req2, func(r bcp.Result) { held = r })
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if first == 0 || !held.Ok {
		t.Fatal("compositions failed")
	}
	// Ticks fall at first + k·ProbeInterval: stop 100 ms after one.
	k := (c.Sim.Now()-first)/recovery.ProbeInterval + 1
	c.Sim.Run(first + k*recovery.ProbeInterval + 100*time.Millisecond)
	c.Net.Fail(0)
	c.Sim.Run(c.Sim.Now() + 200*time.Millisecond)
	c.Net.Recover(0)
	src.Recovery.Establish(req2, held)

	before := src.Recovery.Stats().Walks
	c.Sim.Run(c.Sim.Now() + 5*recovery.ProbeInterval)
	if got := src.Recovery.Stats().Walks - before; got < 8 {
		t.Fatalf("%d walks in five intervals after the outage, want both sessions walked every interval", got)
	}
}

// TestPongRefreshesTheFirstStop: a pong refreshes the availability of every
// snapshot hosted on a stop of its walk, the first stop's too. Load lands on
// the walk's first peer; after one pong of a walk that left since, every
// snapshot on that peer, in the active graph and the backups, reads the
// peer's fresh AvailableHard.
func TestPongRefreshesTheFirstStop(t *testing.T) {
	c := newCluster(30, recovery.DefaultConfig())
	req := makeReq(c, 1, 3, 60)
	sess := establish(t, c, req)
	mgr := c.Peers[int(req.Source)].Recovery
	pongs := 0
	recovery.TapPongs(mgr, func(recovery.Pong) { pongs++ })
	peers, _ := recovery.WalkPeers(sess)
	ledger := c.Peers[int(peers[0])].Engine.Ledger()
	load := ledger.Available()
	for k := range load {
		load[k] /= 2
	}
	if !ledger.CommitDirect(load) {
		t.Fatalf("peer %d refused half its available resources", peers[0])
	}
	fresh := ledger.AvailableHard()
	for walks := mgr.Stats().Walks; mgr.Stats().Walks == walks; {
		c.Sim.Run(c.Sim.Now() + 10*time.Millisecond)
	}
	for seen := pongs; pongs == seen; {
		c.Sim.Run(c.Sim.Now() + 10*time.Millisecond)
	}
	checked := 0
	for _, g := range append([]*service.Graph{sess.Active}, sess.Backups...) {
		for _, snap := range g.Comps {
			if snap.Comp.Peer == peers[0] {
				checked++
				if snap.Avail != fresh {
					t.Errorf("%s on the first stop (peer %d) reads %v, its ledger has %v available", snap.Comp.ID, peers[0], snap.Avail, fresh)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no snapshot on the first stop, peer %d", peers[0])
	}
}
