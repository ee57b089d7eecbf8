package recovery_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/simnet"
)

// blip cuts peer 0, the session source, off from every other peer for a
// window long enough to silence one or two maintenance-probe rounds but
// shorter than three.
func blip(nPeers int) simnet.FaultPlan {
	others := make([]p2p.NodeID, 0, nPeers-1)
	for i := 1; i < nPeers; i++ {
		others = append(others, p2p.NodeID(i))
	}
	return simnet.FaultPlan{
		Seed: 1,
		Partitions: []simnet.Partition{{
			Name: "blip", A: []p2p.NodeID{0}, B: others,
			From: 1 * time.Second, Until: 4 * time.Second,
		}},
	}
}

// TestMissedPongsToleratesTransientSilence: on a wire the fault plan
// hardened, which waits out three silent walks, a network blip that silences
// at most two consecutive probe rounds must not be declared a failure; on a
// clean wire, a walk stop that crashes for the same window and comes back
// must be declared at its first silence.
func TestMissedPongsToleratesTransientSilence(t *testing.T) {
	c := newCluster(33, recovery.DefaultConfig())
	req := makeReq(c, 4, 3, 60)
	establish(t, c, req)
	c.ApplyFaults(blip(len(c.Peers)))
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	mgr := c.Peers[int(req.Source)].Recovery
	if n := mgr.Stats().FailuresDetected; n != 0 {
		t.Errorf("hardened: %d failures detected across a 2-round blip, want 0", n)
	}
	if mgr.Session(req.ID) == nil {
		t.Error("hardened: session did not survive the blip")
	}

	c = newCluster(33, recovery.DefaultConfig())
	req = makeReq(c, 4, 3, 60)
	sess := establish(t, c, req)
	peers, _ := recovery.WalkPeers(sess)
	stop, window := peers[0], blip(len(c.Peers)).Partitions[0]
	c.Sim.Schedule(window.From, func() { c.Net.Fail(stop) })
	c.Sim.Schedule(window.Until, func() { c.Net.Recover(stop) })
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if c.Peers[int(req.Source)].Recovery.Stats().FailuresDetected == 0 {
		t.Errorf("clean wire: walk stop %d down for the blip's window went undetected", stop)
	}
}

// TestDuplicatedControlTrafficHarmless: duplicating every message on the
// wire (pongs, ping acks), which hardens its engines, must neither break a
// healthy session nor trip spurious failure detection.
// TestHardenedSwitchoverUnderDuplication duplicates a switchover's walk.
func TestDuplicatedControlTrafficHarmless(t *testing.T) {
	c := newCluster(34, recovery.DefaultConfig())
	req := makeReq(c, 5, 3, 60)
	establish(t, c, req)
	c.ApplyFaults(simnet.FaultPlan{Seed: 1, Default: simnet.LinkFaults{Dup: 1}})
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	mgr := c.Peers[int(req.Source)].Recovery
	if st := mgr.Stats(); st.FailuresDetected != 0 {
		t.Errorf("duplicated traffic tripped %d failure detections", st.FailuresDetected)
	}
	if mgr.Session(req.ID) == nil {
		t.Error("session died under duplication-only faults")
	}
}

// backupOnlyPeer returns a peer that only the session's backups use, the
// stop before it on the full walk, or NoNode.
func backupOnlyPeer(sess *recovery.Session) (peer, prev p2p.NodeID) {
	peers, active := recovery.WalkPeers(sess)
	for i := max(active, 1); i < len(peers); i++ {
		if peers[i] != sess.Req.Source && peers[i] != sess.Req.Dest {
			return peers[i], peers[i-1]
		}
	}
	return p2p.NoNode, p2p.NoNode
}

// TestHysteresisStillFindsDeadBackup: on a wire a jitter plan hardened, a
// dead peer that only a backup uses silences every full walk while the
// active graph keeps answering in between. Those answers must not reset the
// backups' count: two silent full walks leave the backup held and localize
// nothing, the third drops it, and the healthy active graph is never blamed.
func TestHysteresisStillFindsDeadBackup(t *testing.T) {
	c := newCluster(34, recovery.DefaultConfig())
	req := makeReq(c, 5, 3, 60)
	sess := establish(t, c, req)
	victim, _ := backupOnlyPeer(sess)
	if victim == p2p.NoNode {
		t.Skip("no peer that only a backup uses")
	}
	active := sess.Active
	mgr := c.Peers[int(req.Source)].Recovery
	c.ApplyFaults(simnet.FaultPlan{Seed: 1, Default: simnet.LinkFaults{Jitter: time.Millisecond}})
	c.Net.Fail(victim)
	// The source's only session walks through the backups' peers on its
	// 1st, 4th, 7th... walk; each of those from now on is silent.
	full := func() int { return (mgr.Stats().Walks + recovery.BackupEvery - 1) / recovery.BackupEvery }
	held := func() bool {
		return slices.ContainsFunc(sess.Backups, func(g *service.Graph) bool { return g.ContainsPeer(victim) })
	}
	if !held() {
		t.Fatalf("no backup uses peer %d", victim)
	}
	for third := full() + 3; full() < third; {
		c.Sim.Run(c.Sim.Now() + 100*time.Millisecond)
	}
	// The third silent full walk just left: two deadlines passed.
	if st := mgr.Stats(); st.Localizations != 0 || !held() {
		t.Fatalf("after two silent full walks: %d localizations, backup on peer %d held %v; want 0 and held",
			st.Localizations, victim, held())
	}
	c.Sim.Run(c.Sim.Now() + 2*recovery.ProbeInterval) // its deadline and the pings
	if st := mgr.Stats(); st.FailuresDetected != 0 || st.Localizations != 1 || sess.Active != active {
		t.Fatalf("want one localization and the active graph left alone: %+v", st)
	}
	for _, g := range append(slices.Clone(sess.Backups), sess.Pool...) {
		if g.ContainsPeer(victim) {
			t.Errorf("graph %v still held %v after peer %d died", g, c.Sim.Now(), victim)
		}
	}
}

// TestSilencePastActivePathSparesIt: on the wire the cut's plan hardens, a
// cut between two live peers that only full walks cross silences every full
// walk with nobody dead — the active graph, heard from in between, is not
// declared failed. The same cut between two peers of the active graph still
// is.
func TestSilencePastActivePathSparesIt(t *testing.T) {
	run := func(onActive bool) (recovery.Stats, bool) {
		c := newCluster(34, recovery.DefaultConfig())
		req := makeReq(c, 5, 3, 60)
		sess := establish(t, c, req)
		a, b := backupOnlyPeer(sess)
		if onActive {
			peers, _ := recovery.WalkPeers(sess)
			a, b = peers[0], peers[1]
		}
		if a == p2p.NoNode || a == req.Source || b == req.Source {
			return recovery.Stats{}, false
		}
		c.ApplyFaults(simnet.FaultPlan{Seed: 1, Partitions: []simnet.Partition{{
			Name: "cut", A: []p2p.NodeID{a}, B: []p2p.NodeID{b}, Until: time.Minute,
		}}})
		c.Sim.Run(c.Sim.Now() + time.Minute)
		return c.Peers[int(req.Source)].Recovery.Stats(), true
	}
	if st, ok := run(false); !ok {
		t.Skip("no cut to stage past the active path")
	} else if st.FailuresDetected != 0 || st.Localizations == 0 {
		t.Errorf("silence past the active path: want localizations and no failure: %+v", st)
	}
	if st, ok := run(true); ok && st.FailuresDetected == 0 {
		t.Errorf("silence on the active path went undetected: %+v", st)
	}
}
