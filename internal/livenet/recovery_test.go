package livenet

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fgraph"
	"repro/internal/media"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
)

// TestTestbedRecovery runs §5's maintenance and switchover on the live
// runtime, where every peer is its own goroutine: each maintenance walk is
// one object handed from stop to stop across them, so under -race this is
// what checks that a stop touches only the walk it was handed. A session is
// established with backups, walked for several intervals without a failure,
// then a peer of its active graph crashes and the session switches over to a
// backup that does not use it.
func TestTestbedRecovery(t *testing.T) {
	tb := NewTestbed(TestbedOptions{Hosts: 40, Seed: 5, Speedup: 10})
	defer tb.Close()
	// onLoop runs fn on peer id's event loop and waits for it.
	onLoop := func(id p2p.NodeID, fn func()) {
		done := make(chan struct{})
		tb.Net.Exec(id, func() {
			fn()
			close(done)
		})
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("peer %d's event loop did not run the call", id)
		}
	}
	// A large U keeps every backup the pool allows (Eq. 2 with the loose
	// delay bound below would keep none).
	cfg := recovery.DefaultConfig()
	cfg.U = 1000
	mgrs := make([]*recovery.Manager, len(tb.Peers))
	for i, p := range tb.Peers {
		onLoop(p2p.NodeID(i), func() { mgrs[i] = recovery.NewManager(p.Engine, cfg) })
	}

	var fns []string
	for _, f := range media.Functions() {
		if tb.Replicas(f) > 1 && len(fns) < 3 {
			fns = append(fns, f)
		}
	}
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	q := qos.Unbounded()
	q[qos.Delay] = 10000
	req := &service.Request{
		ID: 1, FGraph: fgraph.Linear(fns...), QoSReq: q, Res: res,
		Bandwidth: 50, Source: 0, Dest: 1, Budget: 40,
	}
	r := tb.Compose(req)
	if !r.Ok || len(r.Backups) == 0 {
		t.Fatalf("live composition: ok=%v with %d other qualified graphs, want a backup", r.Ok, len(r.Backups))
	}
	src := mgrs[req.Source]
	var sess *recovery.Session
	var stats recovery.Stats
	onLoop(req.Source, func() { sess = src.Establish(req, r) })

	const interval = 2 * time.Second // recovery's maintenance period
	tb.Settle(5 * interval)
	var victim p2p.NodeID = p2p.NoNode
	onLoop(req.Source, func() {
		stats = src.Stats()
		for _, comp := range sess.Active.Components() {
			spared := slices.ContainsFunc(sess.Backups, func(b *service.Graph) bool { return !b.ContainsPeer(comp.Peer) })
			if comp.Peer != req.Source && comp.Peer != req.Dest && spared {
				victim = comp.Peer
			}
		}
	})
	if stats.Walks < 3 || stats.FailuresDetected != 0 {
		t.Fatalf("five quiet intervals: %d walks, %d failures detected", stats.Walks, stats.FailuresDetected)
	}
	if victim == p2p.NoNode {
		t.Fatal("no peer of the active graph that a backup spares")
	}

	tb.Net.Fail(victim)
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		tb.Settle(interval / 2)
		var moved bool
		onLoop(req.Source, func() {
			stats = src.Stats()
			moved = src.Session(req.ID) != nil && !sess.Active.ContainsPeer(victim)
		})
		if stats.Switchovers > 0 || stats.Reactives > 0 || stats.Dead > 0 {
			if stats.Switchovers != 1 || !moved {
				t.Fatalf("peer %d crashed: want one switchover off it, got %+v (off the dead peer: %v)", victim, stats, moved)
			}
			return
		}
	}
	t.Fatalf("peer %d crashed: no recovery within 20 s: %+v", victim, stats)
}
