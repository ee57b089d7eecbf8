package recovery_test

import (
	"testing"

	"repro/internal/recovery"
)

// TestRecoveryTickAllocBudget is the maintenance-path allocation ratchet: one
// probe interval of one established session — the walk, its stops, the pong
// and the one deadline check — averaged over whole cycles of BackupEvery
// intervals, so the full walk through the backups' peers counts at its true
// share. It may allocate 5 % more objects than it measured when the budget
// was last set. The walk order is planned when the session's graphs change
// (Session.plan), so none of this grows with the number of backups beyond
// their stops. `BenchmarkRecoveryTick -benchmem` reports the same path.
func TestRecoveryTickAllocBudget(t *testing.T) {
	c := newCluster(30, recovery.DefaultConfig())
	sess := establish(t, c, makeReq(c, 1, 3, 60))
	interval := func() { c.Sim.Run(c.Sim.Now() + recovery.ProbeInterval) }
	for i := 0; i < 5; i++ {
		interval()
	}
	avg := testing.AllocsPerRun(17*recovery.BackupEvery, interval)
	t.Logf("one interval allocates %.0f objects", avg)
	// Measured 1 with 3 backups: the walk, its pong deadline and the tick's
	// re-arm being entries in the manager's timer queues (3 while each armed
	// a closure of its own, 8 while every stop re-boxed the walk it
	// forwarded, 12.3 while every timer cost two closures, 45 when each graph
	// had its own probe, pong and deadline). AllocsPerRun truncates.
	const budget = 1
	if len(sess.Backups) != 3 || avg > budget {
		t.Fatalf("one interval of a session with %d backups allocates %.0f objects, budget %d with 3",
			len(sess.Backups), avg, budget)
	}
}

// TestMaintenanceStopAllocs: a stop works on the walk it was handed and
// forwards the same pointer, so carrying a full walk from its first stop
// through every other one and back to its source allocates nothing. The
// session is closed first, so the source's pong handler returns at once and
// no tick runs in between.
func TestMaintenanceStopAllocs(t *testing.T) {
	c := newCluster(30, recovery.DefaultConfig())
	req := makeReq(c, 1, 3, 60)
	sess := establish(t, c, req)
	src := c.Peers[int(req.Source)].Recovery
	msg := recovery.FullWalk(src, sess)
	first := c.Peers[int(msg.To)].Recovery
	peers, _ := recovery.WalkPeers(sess)
	src.Close(sess.ID)
	c.Sim.Run(c.Sim.Now() + 2*recovery.ProbeInterval) // the teardown and the last tick

	before := recMsgs(c)
	walk := func() {
		recovery.Arrive(first, msg)
		c.Sim.Run(c.Sim.Now() + recovery.ProbeInterval)
	}
	walk()
	if got := recMsgs(c) - before; got != int64(len(peers)) {
		t.Fatalf("a walk of %d stops sent %d messages from its first stop, want one per stop", len(peers), got)
	}
	if avg := testing.AllocsPerRun(100, walk); avg != 0 {
		t.Fatalf("a walk of %d stops allocates %.2f objects from its first stop on, want 0", len(peers), avg)
	}
}
