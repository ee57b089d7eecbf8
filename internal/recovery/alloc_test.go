package recovery_test

import (
	"testing"

	"repro/internal/recovery"
)

// TestRecoveryTickAllocBudget is the maintenance-path allocation ratchet: one
// probe interval of one established session — a path probe along the active
// graph and every maintained backup, each hop's snapshot, the pongs and the
// pong deadline checks — may allocate 5 % more objects than it measured when
// the budget was last set. Graph keys and topological orders are worked out
// when a graph joins the session (Session.adopt), so none of this grows with
// the size of a key. `BenchmarkRecoveryTick -benchmem` reports the same path.
func TestRecoveryTickAllocBudget(t *testing.T) {
	c := newCluster(30, recovery.DefaultConfig())
	sess := establish(t, c, makeReq(c, 1, 3, 60))
	interval := func() { c.Sim.Run(c.Sim.Now() + recovery.ProbeInterval) }
	for i := 0; i < 5; i++ {
		interval()
	}
	avg := testing.AllocsPerRun(50, interval)
	const budget = 47 // measured 45 with 3 backups; 125 when every tick rendered each graph's key and order
	if len(sess.Backups) != 3 || avg > budget {
		t.Fatalf("one interval of a session with %d backups allocates %.0f objects, budget %d with 3",
			len(sess.Backups), avg, budget)
	}
}
