package bcp_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// leased composes req3 under a lease of d on a fresh cluster and returns the
// peers the session holds something on: its components' and its source.
func leased(t *testing.T, d time.Duration, trace obs.Tracer) (*cluster.Cluster, *service.Request, []p2p.NodeID) {
	t.Helper()
	c := cluster.New(cluster.Options{Seed: 7, Peers: 60, Catalog: catalog(8), Trace: trace})
	req := req3(c, 1, 24)
	req.Lease = d
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	peers := []p2p.NodeID{req.Source}
	for _, comp := range res.Best.Components() {
		peers = append(peers, comp.Peer)
	}
	return c, req, peers
}

func hardCPU(c *cluster.Cluster) (cpu float64) {
	for _, p := range c.Peers {
		cpu += p.Ledger.HardAllocated()[qos.CPU]
	}
	return cpu
}

// TestLeaseExpiresUnlessRenewed: what a session commits under a lease frees
// itself on every peer, each expiry traced, once the lease lapses; a renewal
// before the deadline moves it.
func TestLeaseExpiresUnlessRenewed(t *testing.T) {
	mem := &obs.MemSink{}
	c, req, peers := leased(t, 2*time.Minute, mem)
	start := c.Sim.Now() - 60*time.Second // compose ran the clock a minute
	for _, p := range peers {
		c.Peers[int(p)].Engine.Renew(req.ID, 2*time.Minute)
	}
	renewed := c.Sim.Now()
	c.Sim.Run(start + 2*time.Minute + time.Second)
	if hardCPU(c) != 3 {
		t.Fatalf("%.0f CPU units held past the first deadline after a renewal, want the session's 3", hardCPU(c))
	}
	c.Sim.Run(renewed + 2*time.Minute + time.Second)
	if hardCPU(c) != 0 {
		t.Fatalf("%.0f CPU units held after the renewed lease lapsed", hardCPU(c))
	}
	comps, links := 0, 0
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindSessionExpire && ev.Req == req.ID {
			if ev.Comp != "" {
				comps++
			} else {
				links++
			}
		}
	}
	if comps != 3 || links != 4 { // three components; ingress, two service links, egress
		t.Fatalf("traced %d component and %d link expiries, want 3 and 4", comps, links)
	}
}

// TestLeaseSweepsOnRecovery: a peer that is down when its lease lapses lost
// the timer with it; coming back up frees what lapsed at once.
func TestLeaseSweepsOnRecovery(t *testing.T) {
	c, _, peers := leased(t, 70*time.Second, nil)
	victim := peers[len(peers)-1]
	c.Net.Fail(victim)
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if got := c.Peers[int(victim)].Ledger.HardAllocated(); got == (qos.Resources{}) {
		t.Fatal("the downed peer freed its allocation without a timer")
	}
	c.Net.Recover(victim)
	if hardCPU(c) != 0 {
		t.Fatalf("%.0f CPU units held after the lapsed peer came back", hardCPU(c))
	}
}

// TestLeaseAllocs is the lease path's allocation ratchet: renewing a
// session's leases and a sweep that frees nothing (it re-arms the one timer)
// allocate nothing.
func TestLeaseAllocs(t *testing.T) {
	c, req, peers := leased(t, 2*time.Minute, nil)
	eng := c.Peers[int(peers[1])].Engine
	if avg := testing.AllocsPerRun(100, func() { eng.Renew(req.ID, 2*time.Minute) }); avg != 0 {
		t.Errorf("a renewal allocates %.2f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, eng.Sweep); avg != 0 {
		t.Errorf("a sweep that frees nothing allocates %.2f objects, want 0", avg)
	}
}
