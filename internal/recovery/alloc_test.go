package recovery_test

import (
	"testing"

	"repro/internal/recovery"
)

// TestRecoveryTickAllocBudget is the maintenance-path allocation ratchet: one
// probe interval of one established session — the walk's payload, its boxing
// at every stop, the pong and the one deadline check — averaged over whole
// cycles of BackupEvery intervals, so the full walk through the backups'
// peers counts at its true share. It may allocate 5 % more objects than it
// measured when the budget was last set. The walk order is planned when the
// session's graphs change (Session.plan), so none of this grows with the
// number of backups beyond their stops. `BenchmarkRecoveryTick -benchmem`
// reports the same path.
func TestRecoveryTickAllocBudget(t *testing.T) {
	c := newCluster(30, recovery.DefaultConfig())
	sess := establish(t, c, makeReq(c, 1, 3, 60))
	interval := func() { c.Sim.Run(c.Sim.Now() + recovery.ProbeInterval) }
	for i := 0; i < 5; i++ {
		interval()
	}
	avg := testing.AllocsPerRun(17*recovery.BackupEvery, interval)
	t.Logf("one interval allocates %.0f objects", avg)
	// Measured 8 with 3 backups (12.3 while every timer cost two closures);
	// 45 when each graph had its own probe, pong and deadline. AllocsPerRun
	// truncates.
	const budget = 8
	if len(sess.Backups) != 3 || avg > budget {
		t.Fatalf("one interval of a session with %d backups allocates %.0f objects, budget %d with 3",
			len(sess.Backups), avg, budget)
	}
}
