package recovery_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/simnet"
)

// blipSource cuts the session source off from every other peer for a window
// long enough to silence one or two maintenance-probe rounds but shorter
// than three.
func blipSource(c *cluster.Cluster, nPeers int) {
	others := make([]p2p.NodeID, 0, nPeers-1)
	for i := 1; i < nPeers; i++ {
		others = append(others, p2p.NodeID(i))
	}
	c.ApplyFaults(simnet.FaultPlan{
		Seed: 1,
		Partitions: []simnet.Partition{{
			Name: "blip", A: []p2p.NodeID{0}, B: others,
			From: 1 * time.Second, Until: 4 * time.Second,
		}},
	})
}

// TestMissedPongsToleratesTransientSilence: with MissedPongs=3, a network
// blip that silences at most two consecutive probe rounds must not be
// declared a failure; with the eager default of 1 the same blip must be.
func TestMissedPongsToleratesTransientSilence(t *testing.T) {
	run := func(missed int) (detected int, alive bool) {
		cfg := recovery.DefaultConfig()
		cfg.MissedPongs = missed
		c := newCluster(33, cfg)
		req := makeReq(c, 4, 3, 60)
		establish(t, c, req)
		blipSource(c, len(c.Peers))
		c.Sim.Run(c.Sim.Now() + 30*time.Second)
		mgr := c.Peers[int(req.Source)].Recovery
		return mgr.Stats().FailuresDetected, mgr.Session(req.ID) != nil
	}

	detected, alive := run(3)
	if detected != 0 {
		t.Errorf("MissedPongs=3: %d failures detected across a 2-round blip, want 0", detected)
	}
	if !alive {
		t.Error("MissedPongs=3: session did not survive the blip")
	}

	detected, _ = run(1)
	if detected == 0 {
		t.Error("MissedPongs=1: the same blip went undetected (hysteresis leaked into the default)")
	}
}

// TestDuplicatedControlTrafficHarmless: duplicating every message on the
// wire (pongs, ping acks) must neither break a healthy session nor trip
// spurious failure detection. TestHardenedSwitchoverUnderDuplication
// duplicates a switchover's walk.
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

// TestHysteresisStillFindsDeadBackup: with MissedPongs=3 a dead peer that
// only a backup uses silences every full walk while the active graph keeps
// answering in between. Those answers must not reset the backups' count: the
// backup is dropped after MissedPongs full walks, and the healthy active
// graph is never blamed.
func TestHysteresisStillFindsDeadBackup(t *testing.T) {
	cfg := recovery.DefaultConfig()
	cfg.MissedPongs = 3
	c := newCluster(34, cfg)
	req := makeReq(c, 5, 3, 60)
	sess := establish(t, c, req)
	victim, _ := backupOnlyPeer(sess)
	if victim == p2p.NoNode {
		t.Skip("no peer that only a backup uses")
	}
	active := sess.Active
	c.Net.Fail(victim)
	// One period until the next full walk, MissedPongs − 1 more, then the
	// deadline and the pings.
	c.Sim.Run(c.Sim.Now() + time.Duration(cfg.MissedPongs*recovery.BackupEvery+1)*recovery.ProbeInterval)
	mgr := c.Peers[int(req.Source)].Recovery
	if st := mgr.Stats(); st.FailuresDetected != 0 || st.Localizations != 1 || sess.Active != active {
		t.Fatalf("want one localization and the active graph left alone: %+v", st)
	}
	for _, g := range append(slices.Clone(sess.Backups), sess.Pool...) {
		if g.ContainsPeer(victim) {
			t.Errorf("graph %v still held %v after peer %d died", g, c.Sim.Now(), victim)
		}
	}
}

// TestSilencePastActivePathSparesIt: with MissedPongs=3, a cut between two
// live peers that only full walks cross silences every full walk with nobody
// dead — the active graph, heard from in between, is not declared failed.
// The same cut between two peers of the active graph still is.
func TestSilencePastActivePathSparesIt(t *testing.T) {
	run := func(onActive bool) (recovery.Stats, bool) {
		cfg := recovery.DefaultConfig()
		cfg.MissedPongs = 3
		c := newCluster(34, cfg)
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
