package federation_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/federation"
	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/simnet"
)

func catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn%d", i)
	}
	return out
}

// fedCluster builds a federated cluster small enough for fast tests but with
// enough peers per domain that every catalogue function has replicas.
func fedCluster(seed int64, domains, gateways int, trace obs.Tracer) *cluster.Cluster {
	return cluster.New(cluster.Options{
		Seed:    seed,
		IPNodes: 200,
		Peers:   16 * domains,
		Catalog: catalog(3 * domains),
		Domains: &federation.Spec{Domains: domains, Gateways: gateways,
			Hold: 10 * time.Second, Life: 10 * time.Second},
		Trace: trace,
	})
}

// fedRequest builds a composition over the given functions, originating at
// src. The QoS envelope is loose enough that probing succeeds whenever the
// functions are deployed and reachable.
func fedRequest(id uint64, src p2p.NodeID, fns ...string) *service.Request {
	q := qos.Unbounded()
	q[qos.Delay] = 20000
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	return &service.Request{
		ID: id, FGraph: fgraph.Linear(fns...), QoSReq: q, Res: res,
		Bandwidth: 10, FailReq: 0.05,
		Source: src, Dest: src, Budget: 24,
	}
}

// drain runs the cluster until every federated lease must have resolved.
func drain(c *cluster.Cluster, after time.Duration) {
	c.Sim.Run(c.Sim.Now() + after + c.Fed.Cfg.Drain())
}

// orphanCount scans alive peers for any reservation left after a drain.
func orphanCount(c *cluster.Cluster) int {
	n := 0
	for i, p := range c.Peers {
		if !c.Net.Alive(p2p.NodeID(i)) {
			continue
		}
		if p.Ledger.HardAllocated() != (qos.Resources{}) ||
			p.Ledger.SoftAllocated() != (qos.Resources{}) ||
			p.Engine.Held() > 0 {
			n++
		}
	}
	return n
}

// checkTrace asserts the obs invariants (including the 2PC lifecycle
// invariant) over the events chk was fed.
func checkTrace(t *testing.T, chk *obs.Checker) {
	t.Helper()
	for _, v := range chk.Finish() {
		t.Errorf("invariant: %s", v)
	}
}

// composeAcross submits the two-domain request of TestCrossDomainCommit.
// Catalogue homing is round-robin, so fn0 lives in domain 0 and fn1 in
// domain 1: the chain must cross the boundary.
func composeAcross(c *cluster.Cluster, cb func(federation.Result)) {
	src := c.DomainPlan().Members[0][1] // non-gateway member of domain 0
	c.Peers[int(src)].Fed.Compose(fedRequest(1, src, "fn0", "fn1"), cb)
}

func TestCrossDomainCommit(t *testing.T) {
	chk := obs.NewChecker()
	c := fedCluster(21, 2, 1, obs.TracerFunc(chk.Add))

	var got federation.Result
	composeAcross(c, func(r federation.Result) { got = r })
	drain(c, 0)

	if !got.Ok {
		t.Fatal("cross-domain composition failed on a healthy cluster")
	}
	if got.Domains != 2 {
		t.Fatalf("session spans %d domains, want 2", got.Domains)
	}
	if got.CommitLatency <= 0 {
		t.Fatalf("commit latency %v, want positive", got.CommitLatency)
	}
	if got.SetupTime <= 0 || got.SetupTime >= 25*time.Second {
		t.Fatalf("setup time %v outside (0, client timeout)", got.SetupTime)
	}

	led := c.Fed.TotalLedger()
	if led.Prepares != 2 || led.Commits != 2 {
		t.Fatalf("ledger %+v, want 2 prepares and 2 commits", led)
	}
	if out := led.Outstanding(); out != 0 {
		t.Fatalf("%d holds outstanding after drain", out)
	}
	if n := c.Fed.OutstandingHolds(); n != 0 {
		t.Fatalf("%d engine holds outstanding after drain", n)
	}
	if n := orphanCount(c); n != 0 {
		t.Fatalf("%d peers left holding reservations", n)
	}
	checkTrace(t, chk)
}

// TestDecisionOutlivesCoordinator fails the origin coordinator right after
// the first participant applied its commit. By then the coordinator has sent
// every decide, and the participants acknowledge to the client, so the
// request succeeds without the coordinator and long before the client's
// give-up timer.
func TestDecisionOutlivesCoordinator(t *testing.T) {
	chk := obs.NewChecker()
	var c *cluster.Cluster
	failed := false
	hook := obs.TracerFunc(func(ev obs.Event) {
		chk.Add(ev)
		if ev.Kind == obs.KindFedCommit && !failed {
			failed = true
			// After the handler that emitted the commit, so the participant
			// on the coordinator's own peer has sent its acknowledgement.
			c.Sim.Schedule(0, func() { c.Net.Fail(c.DomainPlan().Coordinator(0)) })
		}
	})
	c = fedCluster(21, 2, 1, hook)

	var got federation.Result
	composeAcross(c, func(r federation.Result) { got = r })
	drain(c, 0)

	if !failed {
		t.Fatal("no fed.commit event: the coordinator was never failed")
	}
	if !got.Ok || got.Domains != 2 || got.CommitLatency <= 0 {
		t.Fatalf("result %+v, want ok over 2 domains with a positive commit latency", got)
	}
	if got.SetupTime >= 5*time.Second {
		t.Fatalf("setup time %v: the client waited for a timeout", got.SetupTime)
	}
	if led := c.Fed.TotalLedger(); led.Prepares != 2 || led.Commits != 2 {
		t.Fatalf("ledger %+v, want 2 prepares and 2 commits", led)
	}
	if n := orphanCount(c); n != 0 {
		t.Fatalf("%d alive peers left holding reservations", n)
	}
	checkTrace(t, chk)
}

// TestCommitWireCost counts the federation messages of one healthy
// two-segment request: the participants acknowledge to the client, so the
// coordinator sends no result after a commit.
func TestCommitWireCost(t *testing.T) {
	c := fedCluster(21, 2, 1, nil)
	ok := false
	composeAcross(c, func(r federation.Result) { ok = r.Ok })
	drain(c, 0)
	if !ok {
		t.Fatal("cross-domain composition failed on a healthy cluster")
	}
	byType := c.Net.Stats().ByType
	want := map[string]int64{
		federation.MsgCompose: 1, federation.MsgPrepare: 2, federation.MsgVote: 2,
		federation.MsgDecide: 2, federation.MsgDecided: 2, federation.MsgResult: 0,
	}
	for typ, n := range want {
		if byType[typ] != n {
			t.Errorf("%s: %d messages, want %d", typ, byType[typ], n)
		}
	}
}

// TestGatewayHandsItsListsOnce: two requests split alike, one after the
// other, so one gateway per domain composes a two-function segment twice. The
// second time its probes carry none of the items of the lists the first
// handed their first hops, so the second request's probe bytes are lower by
// at least every duplicate of each segment's second function.
func TestGatewayHandsItsListsOnce(t *testing.T) {
	c := fedCluster(21, 2, 1, nil)
	src := c.DomainPlan().Members[0][1]
	// fn0 and fn2 home in domain 0, fn1 and fn3 in domain 1.
	probeBytes := func(id uint64) int64 {
		t.Helper()
		before, ok := c.Net.Stats().BytesByType[bcp.MsgProbe], false
		c.Peers[int(src)].Fed.Compose(fedRequest(id, src, "fn0", "fn2", "fn1", "fn3"), func(r federation.Result) {
			ok = r.Ok && r.Domains == 2
		})
		drain(c, 0)
		if !ok {
			t.Fatalf("request %d did not compose over both domains", id)
		}
		return c.Net.Stats().BytesByType[bcp.MsgProbe] - before
	}
	first, second := probeBytes(1), probeBytes(2)
	items := 0
	for dom, fn := range []string{"fn2", "fn3"} {
		for _, p := range c.DomainPlan().Members[dom] {
			for _, comp := range c.Peers[int(p)].Engine.LocalComponents() {
				if comp.Function == fn {
					items++
				}
			}
		}
	}
	t.Logf("probe bytes %d, then %d; %d items handed", first, second, items)
	if want := int64(items * dht.ItemSize); items == 0 || first-second < want {
		t.Fatalf("probe bytes %d, then %d: want a drop of at least %d, the %d items of the lists handed",
			first, second, want, items)
	}
}

func TestSingleDomainStaysLocal(t *testing.T) {
	chk := obs.NewChecker()
	c := fedCluster(22, 2, 1, obs.TracerFunc(chk.Add))

	// fn0 and fn2 both home in domain 0 (round-robin over 2 domains).
	var got federation.Result
	src := c.DomainPlan().Members[0][2]
	c.Peers[int(src)].Fed.Compose(fedRequest(2, src, "fn0", "fn2"), func(r federation.Result) {
		got = r
	})
	drain(c, 0)

	if !got.Ok {
		t.Fatal("single-domain composition failed on a healthy cluster")
	}
	if got.Domains != 1 {
		t.Fatalf("session spans %d domains, want 1", got.Domains)
	}
	if n := orphanCount(c); n != 0 {
		t.Fatalf("%d peers left holding reservations", n)
	}
	checkTrace(t, chk)
}

func TestMissingFunctionFailsFast(t *testing.T) {
	chk := obs.NewChecker()
	c := fedCluster(23, 2, 1, obs.TracerFunc(chk.Add))

	var got federation.Result
	var done bool
	src := c.DomainPlan().Members[0][1]
	c.Peers[int(src)].Fed.Compose(fedRequest(3, src, "fn0", "nosuchfn"), func(r federation.Result) {
		got, done = r, true
	})
	c.Sim.Run(c.Sim.Now() + 5*time.Second)

	if !done {
		t.Fatal("no-provider request did not fail fast")
	}
	if got.Ok {
		t.Fatal("composition over a function nobody provides succeeded")
	}
	drain(c, 0)
	if n := orphanCount(c); n != 0 {
		t.Fatalf("%d peers left holding reservations", n)
	}
	if led := c.Fed.TotalLedger(); led.Prepares != 0 {
		t.Fatalf("failed split still prepared: %+v", led)
	}
	checkTrace(t, chk)
}

// TestInvalidRequestRejected: a request Validate refuses — no function graph,
// a zero budget — fails on the client at once, before anything is sent, and
// the trace records it as a composition of no functions that failed.
func TestInvalidRequestRejected(t *testing.T) {
	chk, mem := obs.NewChecker(), &obs.MemSink{}
	c := fedCluster(23, 2, 1, obs.TracerFunc(func(ev obs.Event) { mem.Emit(ev); chk.Add(ev) }))
	src := c.DomainPlan().Members[0][1]
	noGraph, noBudget := fedRequest(7, src, "fn0"), fedRequest(8, src, "fn0", "fn1")
	noGraph.FGraph, noBudget.Budget = nil, 0
	for _, req := range []*service.Request{noGraph, noBudget} {
		called := false
		c.Peers[int(src)].Fed.Compose(req, func(r federation.Result) {
			called = true
			if r.Ok || r.ReqID != req.ID {
				t.Errorf("invalid request %d: result %+v", req.ID, r)
			}
		})
		if !called {
			t.Fatalf("callback must fire synchronously for invalid request %d", req.ID)
		}
	}
	drain(c, 0)
	if n := c.Net.Stats().ByType[federation.MsgCompose]; n != 0 {
		t.Errorf("%d compose messages sent for invalid requests", n)
	}
	starts, fails := map[uint64]int{}, map[uint64]int{}
	for _, ev := range mem.Events() {
		switch {
		case ev.Kind == obs.KindComposeStart && ev.Hops == 0:
			starts[ev.Req]++
		case ev.Kind == obs.KindComposeDone && ev.Note == "fail":
			fails[ev.Req]++
		}
	}
	for _, id := range []uint64{7, 8} {
		if starts[id] != 1 || fails[id] != 1 {
			t.Errorf("request %d traced %d starts of no functions and %d failed ends, want one each", id, starts[id], fails[id])
		}
	}
	checkTrace(t, chk)
}

// TestGatewayCrashPresumedAbort crashes the remote domain's gateway while
// requests are in flight: every prepare it issued before dying is excused by
// its crash, every hold elsewhere resolves by presumed abort, and no alive
// peer is left holding anything.
func TestGatewayCrashPresumedAbort(t *testing.T) {
	chk := obs.NewChecker()
	c := fedCluster(24, 2, 1, obs.TracerFunc(chk.Add))
	victim := c.DomainPlan().Gateways(1)[0]

	results := 0
	for i := 0; i < 6; i++ {
		id := uint64(10 + i)
		src := c.DomainPlan().Members[0][1+i%4]
		at := time.Duration(i) * 2 * time.Second
		c.Sim.Schedule(at, func() {
			c.Peers[int(src)].Fed.Compose(fedRequest(id, src, "fn0", "fn1"), func(federation.Result) {
				results++
			})
		})
	}
	c.Sim.Schedule(5*time.Second, func() { c.Net.Fail(victim) })
	drain(c, 12*time.Second)

	if results != 6 {
		t.Fatalf("%d of 6 requests resolved at the client", results)
	}
	if n := orphanCount(c); n != 0 {
		t.Fatalf("%d alive peers left holding reservations", n)
	}
	checkTrace(t, chk)
}

// TestPartitionDuringCommit cuts domain 0 off from the rest of the overlay
// across the commit window, then heals it: in-flight protocol rounds resolve
// by timeout on both sides and the drained cluster holds nothing.
func TestPartitionDuringCommit(t *testing.T) {
	chk := obs.NewChecker()
	c := fedCluster(25, 2, 1, obs.TracerFunc(chk.Add))

	for i := 0; i < 6; i++ {
		id := uint64(30 + i)
		src := c.DomainPlan().Members[0][1+i%4]
		at := time.Duration(i) * 2 * time.Second
		c.Sim.Schedule(at, func() {
			c.Peers[int(src)].Fed.Compose(fedRequest(id, src, "fn0", "fn1"), func(federation.Result) {})
		})
	}
	c.ApplyFaults(simnet.FaultPlan{Seed: 9, Partitions: []simnet.Partition{
		c.DomainPlan().DomainPartition(0, 4*time.Second, 20*time.Second),
	}})
	drain(c, 20*time.Second)

	if n := orphanCount(c); n != 0 {
		t.Fatalf("%d peers left holding reservations after heal", n)
	}
	if n := c.Fed.OutstandingHolds(); n != 0 {
		t.Fatalf("%d holds outstanding after heal", n)
	}
	checkTrace(t, chk)
}

// TestCoordinatorCrashPresumedAbort kills the origin coordinator mid-window.
// A request it decided before the crash succeeds, because the participants
// acknowledge to the client; the others' clients fall back to their give-up
// timer, and participant holds in the remote domain expire; nothing leaks.
func TestCoordinatorCrashPresumedAbort(t *testing.T) {
	chk := obs.NewChecker()
	c := fedCluster(26, 2, 1, obs.TracerFunc(chk.Add))
	victim := c.DomainPlan().Coordinator(0)

	results := 0
	for i := 0; i < 6; i++ {
		id := uint64(50 + i)
		src := c.DomainPlan().Members[0][1+i%4]
		at := time.Duration(i) * 2 * time.Second
		c.Sim.Schedule(at, func() {
			c.Peers[int(src)].Fed.Compose(fedRequest(id, src, "fn0", "fn1"), func(federation.Result) {
				results++
			})
		})
	}
	c.Sim.Schedule(3*time.Second, func() { c.Net.Fail(victim) })
	drain(c, 12*time.Second)

	if results != 6 {
		t.Fatalf("%d of 6 requests resolved at the client (give-up timer must fire)", results)
	}
	if n := orphanCount(c); n != 0 {
		t.Fatalf("%d alive peers left holding reservations", n)
	}
	checkTrace(t, chk)
}

// ledgerWorkload schedules eight three-function requests over three domains,
// one every 2 s, and returns the cluster they run on.
func ledgerWorkload(trace obs.Tracer) *cluster.Cluster {
	c := fedCluster(27, 3, 2, trace)
	for i := 0; i < 8; i++ {
		id := uint64(70 + i)
		dom := i % 3
		src := c.DomainPlan().Members[dom][2]
		fns := []string{catalog(9)[dom], catalog(9)[dom+3], catalog(9)[(dom+1)%3]}
		at := time.Duration(i) * 2 * time.Second
		c.Sim.Schedule(at, func() {
			c.Peers[int(src)].Fed.Compose(fedRequest(id, src, fns...), func(federation.Result) {})
		})
	}
	return c
}

// TestLedgerMatchesTrace cross-checks the gateway ledgers against the trace
// events on a healthy multi-request run.
func TestLedgerMatchesTrace(t *testing.T) {
	mem, chk := &obs.MemSink{}, obs.NewChecker()
	c := ledgerWorkload(obs.MultiTracer{mem, obs.TracerFunc(chk.Add)})
	drain(c, 16*time.Second)

	var prep, commit, abort int64
	for _, ev := range mem.Events() {
		switch ev.Kind {
		case obs.KindFedPrepare:
			prep++
		case obs.KindFedCommit:
			commit++
		case obs.KindFedAbort:
			abort++
		}
	}
	led := c.Fed.TotalLedger()
	if led.Prepares != prep {
		t.Errorf("ledger prepares %d, trace has %d", led.Prepares, prep)
	}
	if led.Commits != commit {
		t.Errorf("ledger commits %d, trace has %d", led.Commits, commit)
	}
	if led.Aborts+led.Expires != abort {
		t.Errorf("ledger aborts+expires %d, trace has %d", led.Aborts+led.Expires, abort)
	}
	if led.Prepares == 0 {
		t.Fatal("workload drove no prepares")
	}
	if out := led.Outstanding(); out != 0 {
		t.Fatalf("%d holds outstanding after drain", out)
	}

	// Per-domain ledgers partition the total.
	var sum federation.Ledger
	for d := 0; d < 3; d++ {
		sum.Add(c.Fed.DomainLedger(d))
	}
	if sum != led {
		t.Errorf("domain ledgers %+v do not sum to total %+v", sum, led)
	}

	checkTrace(t, chk)
	if n := orphanCount(c); n != 0 {
		t.Fatalf("%d peers left holding reservations", n)
	}
}

// TestPrepareDedupForgets holds the agents' prepare dedup sets bounded: an
// entry stays while its prepare may still see a duplicated copy and goes
// Hold after the prepare resolved, so a drained cluster keeps none.
func TestPrepareDedupForgets(t *testing.T) {
	c := ledgerWorkload(nil)
	seen := func() int {
		n := 0
		for _, a := range c.Fed.Agents {
			n += a.SeenCount()
		}
		return n
	}
	// The last request arrives at 14 s and resolves within a few seconds;
	// the test's Hold is 10 s.
	c.Sim.Run(16 * time.Second)
	if n := seen(); n == 0 {
		t.Fatal("no prepare remembered while its duplicates may still arrive")
	}
	drain(c, 16*time.Second)
	if led := c.Fed.TotalLedger(); led.Prepares == 0 {
		t.Fatal("workload drove no prepares")
	}
	for i, a := range c.Fed.Agents {
		if n := a.SeenCount(); n != 0 {
			t.Errorf("gateway agent %d keeps %d prepare sub-IDs after the drain", i, n)
		}
	}
}

// TestHoldExpiresAfterItsWindow: a prepared segment that hears no decide is
// released exactly Hold after its prepare — the gateway's engine holds it
// until then and nothing after, and the peers it reserved on drain by the
// teardown, not by a lease — counts one expiry, traces one fed.abort noted
// expire, and answers a commit decide that comes later with not-committed.
func TestHoldExpiresAfterItsWindow(t *testing.T) {
	mem := &obs.MemSink{}
	c := fedCluster(21, 2, 1, mem)
	gw, agent := c.DomainPlan().Gateways(1)[0], c.Fed.Agents[1]
	eng, hold := c.Peers[int(gw)].Engine, c.Fed.Cfg.Hold
	client := c.DomainPlan().Members[0][1]
	var answers []bool
	c.Peers[int(client)].Node.Handle(federation.MsgDecided, func(_ p2p.Node, msg p2p.Message) {
		answers = append(answers, federation.Committed(msg.Payload))
	})
	const fedID = 7
	sub := fedRequest(federation.SubID(fedID, 0), gw, "fn1", "fn3") // leased for ever: only the expiry releases it
	c.Sim.Schedule(0, func() { agent.Prepare(c.DomainPlan().Coordinator(0), fedID, sub) })

	var prepared time.Duration
	c.Sim.Run(hold)
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindFedPrepare && ev.PID == sub.ID {
			prepared = ev.TS
		}
	}
	if prepared == 0 {
		t.Fatal("the segment was not prepared")
	}
	c.Sim.Run(prepared + hold - 1)
	if eng.Held() != 1 || orphanCount(c) == 0 {
		t.Fatalf("1 ns before its window ends: %d held, %d peers reserved; want 1 and some", eng.Held(), orphanCount(c))
	}
	c.Sim.Run(prepared + hold)
	if eng.Held() != 0 {
		t.Fatalf("%d held when the window ended, want 0", eng.Held())
	}
	c.Sim.Run(prepared + hold + 5*time.Second)
	if n := orphanCount(c); n != 0 {
		t.Fatalf("%d peers still reserved 5 s after the expiry", n)
	}
	if led := agent.Ledger; led != (federation.Ledger{Prepares: 1, Expires: 1}) {
		t.Fatalf("ledger %+v, want one prepare and one expiry", led)
	}
	var aborts []obs.Event
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindFedAbort {
			aborts = append(aborts, ev)
		}
	}
	if len(aborts) != 1 || aborts[0].Note != "expire" || aborts[0].PID != sub.ID || aborts[0].TS != prepared+hold {
		t.Fatalf("fed.abort events %+v, want one noted expire for %d at %v", aborts, sub.ID, prepared+hold)
	}

	c.Sim.Schedule(0, func() { agent.Commit(fedID, client) })
	c.Sim.Run(c.Sim.Now() + 5*time.Second)
	if len(answers) != 1 || answers[0] {
		t.Fatalf("a commit decide after the expiry was answered %v, want one not-committed", answers)
	}
}
