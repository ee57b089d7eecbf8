package recovery_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// unhost makes the hosting peer forget a component, as if it had been
// undeployed; the peer itself stays up.
func unhost(c *cluster.Cluster, comp service.Component) {
	local := c.Peers[int(comp.Peer)].Engine.LocalComponents()
	i := slices.IndexFunc(local, func(l service.Component) bool { return l.ID == comp.ID })
	local[i].ID += "-gone"
}

// failable returns a peer of the session's active graph, other than its
// source and destination, that none of the given graphs uses, or NoNode.
func failable(sess *recovery.Session, spare ...*service.Graph) p2p.NodeID {
	for _, comp := range sess.Active.Components() {
		p := comp.Peer
		if p != sess.Req.Source && p != sess.Req.Dest && !slices.ContainsFunc(spare, func(g *service.Graph) bool { return g.ContainsPeer(p) }) {
			return p
		}
	}
	return p2p.NoNode
}

// TestRefusedSwitchoverReleasesItsCommits: the backup a switchover tries
// first is refused by an upstream hop — its peer has no capacity left —
// after hops downstream of it committed components the active graph does not
// use. The walk's rollback must release them: once the second backup took
// over, every live peer holds exactly what the active graph needs of it.
func TestRefusedSwitchoverReleasesItsCommits(t *testing.T) {
	staged := 0
	for seed := int64(30); seed < 40; seed++ {
		cfg := recovery.DefaultConfig()
		cfg.MaxBackups = 2
		c := newCluster(seed, cfg)
		req := makeReq(c, 1, 3, 60)
		sess := establish(t, c, req)
		if len(sess.Backups) != 2 {
			continue
		}
		// The order tryRecovery tries them in: overlap with the active graph,
		// then cost.
		first, second := sess.Backups[0], sess.Backups[1]
		if swap := cmp.Or(cmp.Compare(second.Overlap(sess.Active), first.Overlap(sess.Active)),
			cmp.Compare(first.Cost(req), second.Cost(req))); swap > 0 {
			first, second = second, first
		}
		victim := failable(sess, first, second)
		refuser, leaks := stageRefusal(sess.Active, first, second)
		if victim == p2p.NoNode || refuser == p2p.NoNode {
			continue
		}
		staged++
		full := c.Peers[int(refuser)].Ledger
		fill := full.Available()
		full.CommitDirect(fill)
		c.Net.Fail(victim)
		c.Sim.Run(c.Sim.Now() + 30*time.Second)

		mgr := c.Peers[int(req.Source)].Recovery
		if st := mgr.Stats(); st.FailuresDetected != 1 || st.Switchovers != 1 || sess.Active != second {
			t.Fatalf("seed %d: want the first backup refused and the second switched to: %+v", seed, st)
		}
		for i, p := range c.Peers {
			id := p2p.NodeID(i)
			if id == victim {
				continue // a downed peer hears no teardown
			}
			var want qos.Resources
			if id == refuser {
				want = fill
			}
			for _, comp := range sess.Active.Components() {
				if comp.Peer == id {
					want = want.Add(req.Res)
				}
			}
			if got := p.Ledger.HardAllocated(); got != want {
				t.Errorf("seed %d: peer %d holds %v, the active graph needs %v (refused walk committed %v)", seed, id, got, want, leaks)
			}
		}
	}
	if staged == 0 {
		t.Fatal("no seed staged a refused switchover walk")
	}
}

// stageRefusal picks the peer that refuses first's walk: a stop after the
// first whose peer neither the active graph nor second uses, downstream of a
// component that neither uses and that a different peer hosts — what the
// walk commits before it is refused and only the rollback releases. It
// returns NoNode when first has no such stop.
func stageRefusal(active, first, second *service.Graph) (refuser p2p.NodeID, leaks []string) {
	order := first.Pattern.TopoOrder()
	for i := len(order) - 2; i >= 0; i-- {
		p := first.Comps[order[i]].Comp.Peer
		if active.ContainsPeer(p) || second.ContainsPeer(p) {
			continue
		}
		leaks = leaks[:0]
		for _, fn := range order[i+1:] {
			comp := first.Comps[fn].Comp
			if comp.Peer != p && !active.Contains(comp.ID) && !second.Contains(comp.ID) {
				leaks = append(leaks, comp.ID)
			}
		}
		if len(leaks) > 0 {
			return p, leaks
		}
	}
	return p2p.NoNode, nil
}

// linkAvail reads the available bandwidth of every overlay link.
func linkAvail(c *cluster.Cluster) []float64 {
	out := make([]float64, c.Overlay.NumLinks())
	for i := range out {
		out[i] = c.Overlay.AvailBandwidth(topology.Path{Links: []int{i}})
	}
	return out
}

// TestReactiveThenSwitchoverReleasesIngress: a reactive re-composition hands
// the session graphs of a request ID of its own; a later switchover to one
// of their backups must admit the source's ingress links under that ID, or
// Close, which tears the active graph down under it, leaves them admitted.
// Every component of the first graphs goes missing at once, so the session
// re-composes; then one of the new active graph's, so it switches over.
func TestReactiveThenSwitchoverReleasesIngress(t *testing.T) {
	c := newCluster(30, recovery.DefaultConfig())
	capacity := linkAvail(c)
	req := makeReq(c, 1, 3, 60)
	sess := establish(t, c, req)
	mgr := c.Peers[int(req.Source)].Recovery

	gone := make(map[string]bool)
	for _, g := range append([]*service.Graph{sess.Active}, sess.Backups...) {
		for _, comp := range g.Components() {
			if !gone[comp.ID] {
				gone[comp.ID] = true
				unhost(c, comp)
			}
		}
	}
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if st := mgr.Stats(); st.Reactives != 1 || st.Switchovers != 0 || mgr.Session(req.ID) == nil || sess.Active.Req.ID == req.ID {
		t.Fatalf("want the session re-composed under a request ID of its own: %+v", st)
	}

	var lost service.Component
	for _, comp := range sess.Active.Components() {
		if slices.ContainsFunc(sess.Backups, func(b *service.Graph) bool { return !b.Contains(comp.ID) }) {
			lost = comp
		}
	}
	if lost.ID == "" {
		t.Fatal("every backup of the re-composed session contains every active component")
	}
	unhost(c, lost)
	c.Sim.Run(c.Sim.Now() + 2*recovery.ProbeInterval)
	if st := mgr.Stats(); st.Switchovers != 1 {
		t.Fatalf("want a switchover after the re-composition: %+v", st)
	}

	mgr.Close(req.ID)
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	drained(t, c, capacity, "after Close")
}

// drained fails t unless every ledger reads zero and every overlay link is
// back at capacity.
func drained(t *testing.T, c *cluster.Cluster, capacity []float64, what string) {
	t.Helper()
	for i, p := range c.Peers {
		if got := p.Ledger.HardAllocated(); got != (qos.Resources{}) {
			t.Errorf("%s: peer %d still holds %v", what, i, got)
		}
	}
	for i, avail := range linkAvail(c) {
		if math.Abs(avail-capacity[i]) > 1e-6 {
			t.Errorf("%s: overlay link %d has %.3f kbps available, capacity %.3f", what, i, avail, capacity[i])
		}
	}
}

// TestReactiveReleasesReusedComponents: a reactive re-composition runs under
// a request ID of its own, and allocations are keyed by request, so the
// broken graph's allocations of the components the new graph reuses are not
// the new graph's: the teardown must free them too. One of the active graph's
// components goes missing on a session that keeps no backups; once it closed
// on the re-composed graph, nothing is held anywhere.
func TestReactiveReleasesReusedComponents(t *testing.T) {
	staged := 0
	for seed := int64(30); seed < 40; seed++ {
		cfg := recovery.DefaultConfig()
		cfg.MaxBackups = 0
		c := cluster.New(cluster.Options{Seed: seed, IPNodes: 300, Peers: 12, Catalog: catalog(5), Recovery: &cfg})
		capacity := linkAvail(c)
		req := makeReq(c, 1, 3, 60)
		sess := establish(t, c, req)
		mgr := c.Peers[int(req.Source)].Recovery
		broken := sess.Active
		unhost(c, broken.Components()[1])
		c.Sim.Run(c.Sim.Now() + 30*time.Second)
		if st := mgr.Stats(); st.Reactives != 1 || mgr.Session(req.ID) == nil {
			t.Fatalf("seed %d: want the session re-composed: %+v", seed, st)
		}
		if sess.Active.Overlap(broken) == 0 {
			continue
		}
		staged++
		mgr.Close(req.ID)
		c.Sim.Run(c.Sim.Now() + 30*time.Second)
		drained(t, c, capacity, fmt.Sprintf("seed %d, closed after a re-composition reusing %d components", seed, sess.Active.Overlap(broken)))
	}
	if staged == 0 {
		t.Fatal("no seed re-composed onto a graph that reuses a component")
	}
}

// TestCloseDuringSwitchover: the session closes while its switchover's walk
// is out. The walk's late answer must neither make the backup the active
// graph of a session nobody will tear down nor walk the next backup:
// afterwards no peer holds anything for the session. The close resolves the
// open rec.failure with rec.closed, so the trace checker finds nothing.
func TestCloseDuringSwitchover(t *testing.T) {
	rc, chk := recovery.DefaultConfig(), obs.NewChecker()
	c := cluster.New(cluster.Options{Seed: 30, Peers: 80, Catalog: catalog(5), Recovery: &rc, Trace: obs.TracerFunc(chk.Add)})
	capacity := linkAvail(c)
	req := makeReq(c, 1, 3, 60)
	sess := establish(t, c, req)
	mgr := c.Peers[int(req.Source)].Recovery
	if len(sess.Backups) == 0 {
		t.Fatal("no backup to switch over to")
	}
	unhost(c, sess.Active.Components()[1])
	deadline := c.Sim.Now() + 2*recovery.ProbeInterval
	for mgr.Stats().FailuresDetected == 0 && c.Sim.Now() < deadline {
		c.Sim.Run(c.Sim.Now() + time.Millisecond)
	}
	if st := mgr.Stats(); st.FailuresDetected != 1 || st.Switchovers != 0 || st.Reactives != 0 {
		t.Fatalf("want a switchover under way: %+v", st)
	}
	mgr.Close(req.ID)
	c.Sim.Run(c.Sim.Now() + 30*time.Second)
	if st := mgr.Stats(); st.Switchovers != 0 || st.Reactives != 0 {
		t.Errorf("a closed session recovered: %+v", st)
	}
	drained(t, c, capacity, "closed during a switchover")
	establish(t, c, makeReq(c, 2, 3, 60)) // the trace goes on past the switchover's deadline
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}
}

// TestHardenedSwitchoverUnderDuplication: on a wire the fault plan hardened,
// with every message duplicated, a session's switchover still commits, and
// the duplicated acks do not walk the backup again: each of its components
// is admitted once.
func TestHardenedSwitchoverUnderDuplication(t *testing.T) {
	rc := recovery.DefaultConfig()
	mem := &obs.MemSink{}
	c := cluster.New(cluster.Options{Seed: 31, Peers: 80, Catalog: catalog(5), Recovery: &rc, Trace: mem})
	req := makeReq(c, 2, 3, 60)
	sess := establish(t, c, req)
	if len(sess.Backups) == 0 {
		t.Fatal("no backup to switch over to")
	}
	victim := failable(sess, sess.Backups[0])
	if victim == p2p.NoNode {
		t.Fatal("no peer of the active graph to fail that the first backup spares")
	}
	c.ApplyFaults(simnet.FaultPlan{Seed: 1, Default: simnet.LinkFaults{Dup: 1}})
	failAt := c.Sim.Now()
	c.Net.Fail(victim)
	c.Sim.Run(c.Sim.Now() + 60*time.Second)

	mgr := c.Peers[int(req.Source)].Recovery
	if st := mgr.Stats(); st.FailuresDetected != 1 || st.Switchovers != 1 || st.Reactives != 0 {
		t.Fatalf("want one failure repaired by one switchover: %+v", st)
	}
	if s := mgr.Session(req.ID); s == nil || s.Active.ContainsPeer(victim) {
		t.Fatal("the session is gone or runs on the dead peer")
	}
	admits := make(map[string]int)
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindSessionAdmit && ev.TS > failAt {
			admits[ev.Comp]++
		}
	}
	for _, comp := range sess.Active.Components() {
		if admits[comp.ID] != 1 {
			t.Errorf("component %s admitted %d times by the switchover", comp.ID, admits[comp.ID])
		}
	}
	if len(admits) != len(sess.Active.Comps) {
		t.Errorf("the switchover admitted %d components, the active graph has %d", len(admits), len(sess.Active.Comps))
	}
}
