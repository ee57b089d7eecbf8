package recovery_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/recovery"
	"repro/internal/service"
)

// TestLongestRepairKeepsLeases drives a session through the longest repair
// its leases must outlast. A peer of its active graph crashes just as a walk
// came back, so the next walk goes silent; every backup that survives
// localization then has a peer that crashes right after the pings, so each
// switchover walk runs to its deadline; then the session re-composes. The
// request carries no lease of its own: what the session holds is leased only
// by its walks' renewals, and none of it may expire while the session lives —
// the surviving components hold their allocations until the re-composition
// commits its own, and the re-composed graph holds its, walked and renewed,
// for minutes after.
func TestLongestRepairKeepsLeases(t *testing.T) {
	rc := recovery.DefaultConfig()
	rc.U = 1000 // keep every backup the pool allows
	var (
		c                    *cluster.Cluster
		sess                 *recovery.Session
		victim               = p2p.NoNode
		out                  []p2p.NodeID // a peer of each backup, down from the pings to the re-composition
		attempts             int
		walked, failed, done time.Duration
		expired              []obs.Event
	)
	c = cluster.New(cluster.Options{Seed: 30, Peers: 80, Catalog: catalog(5), Recovery: &rc,
		Trace: obs.TracerFunc(func(ev obs.Event) {
			switch {
			case ev.Kind == obs.KindSessionExpire:
				expired = append(expired, ev)
			case sess == nil || ev.Req != sess.ID:
			case ev.Kind == obs.KindRecFailure:
				failed = ev.TS
				for _, p := range out {
					c.Net.Fail(p)
				}
			case ev.Kind == obs.KindRecAttempt && ev.PID == 0:
				attempts++
			case ev.Kind == obs.KindRecAttempt:
				for _, p := range out {
					c.Net.Recover(p)
				}
			case ev.Kind == obs.KindRecReactive:
				done = ev.TS
			}
		})})
	req := makeReq(c, 1, 3, 60)
	sess = establish(t, c, req)
	src := c.Peers[int(req.Source)].Recovery

	// The victim: a peer of the active graph as few backups as possible use.
	spared := func(p p2p.NodeID) int {
		return len(slices.DeleteFunc(slices.Clone(sess.Backups), func(b *service.Graph) bool { return b.ContainsPeer(p) }))
	}
	for _, comp := range sess.Active.Components() {
		if p := comp.Peer; p != req.Source && p != req.Dest && (victim == p2p.NoNode || spared(p) > spared(victim)) {
			victim = p
		}
	}
	for _, b := range sess.Backups {
		for _, comp := range b.Components() {
			if p := comp.Peer; !b.ContainsPeer(victim) && !sess.Active.ContainsPeer(p) && p != req.Dest {
				out = append(out, p)
				break
			}
		}
	}
	if victim == p2p.NoNode || len(out) < 2 {
		t.Fatalf("want a victim two backups spare, each with a peer of its own: victim %d, %d backups out of reach", victim, len(out))
	}
	recovery.TapPongs(src, func(recovery.Pong) {
		if walked == 0 {
			walked = c.Sim.Now()
			c.Net.Fail(victim)
		}
	})
	c.Sim.Run(c.Sim.Now() + 5*time.Minute)

	st := src.Stats()
	if st.FailuresDetected != 1 || st.Switchovers != 0 || st.Reactives != 1 || attempts < 2 || src.Session(req.ID) == nil {
		t.Fatalf("want one failure, %d switchover attempts that time out, then a re-composition: %d attempts, %+v", len(out), attempts, st)
	}
	unwalked := done + recovery.ProbeInterval - walked
	t.Logf("walk at %v, failure at %v, %d switchover attempts, re-composed at %v: %v unwalked, lease %v",
		walked, failed, attempts, done, unwalked, rc.Lease())
	if unwalked >= rc.Lease() {
		t.Errorf("the repair left the session %v unwalked, longer than its lease %v", unwalked, rc.Lease())
	}
	for _, ev := range expired {
		if ev.Req&(1<<40-1) == req.ID {
			t.Errorf("a live session's allocation expired: %+v", ev)
		}
	}
	for _, comp := range sess.Active.Components() {
		if held := c.Peers[int(comp.Peer)].Ledger.HardAllocated(); !req.Res.Fits(held) {
			t.Errorf("component %s of the re-composed graph holds %v on its peer, needs %v", comp.ID, held, req.Res)
		}
	}
}
