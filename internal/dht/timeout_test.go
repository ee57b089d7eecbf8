package dht

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/simnet"
)

// timeoutRec is one lookup timeout as a test sees it: when, which lookup (its
// span) and whether it retried or failed.
type timeoutRec struct {
	at    time.Duration
	span  uint64
	retry bool
}

func (r timeoutRec) String() string {
	what := "fail"
	if r.retry {
		what = "retry"
	}
	return fmt.Sprintf("%v L%d %s", r.at, r.span, what)
}

// blackHoled returns a simulated ring whose node 0 is the only peer up, a key
// node 0 routes to another peer, and the timeouts node 0 records. The nodes
// read every peer as up, so each try of a lookup of the key goes to a dead
// peer and dies unanswered: only its timeouts end it.
func blackHoled(t *testing.T) (*simnet.Network, *Node, ID, *[]timeoutRec) {
	t.Helper()
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(5*time.Millisecond), rand.New(rand.NewSource(1)))
	nodes := make([]*Node, 30)
	for i := range nodes {
		nodes[i] = New(nw.AddNode(p2p.NodeID(i)), nil)
	}
	Build(nodes)
	for i := 1; i < len(nodes); i++ {
		nw.Fail(p2p.NodeID(i))
	}
	key := Key("black-holed")
	if nodes[0].nextHop(key).Addr == p2p.NoNode {
		t.Fatal("node 0 is the key's root")
	}
	var got []timeoutRec
	nodes[0].Trace = obs.TracerFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindDHTGetRetry || ev.Kind == obs.KindDHTGetFail {
			got = append(got, timeoutRec{ev.TS, ev.Req, ev.Kind == obs.KindDHTGetRetry})
		}
	})
	return nw, nodes[0], key, &got
}

// TestLookupsTimeOutAtTheirOwnDueInstants: lookups of one node with mixed
// per-call timeouts each retry and then fail exactly their timeout after each
// try, and lookups due at one instant time out in the order their timers were
// armed, a retry's re-arm included.
func TestLookupsTimeOutAtTheirOwnDueInstants(t *testing.T) {
	nw, n, key, got := blackHoled(t)
	sim := nw.Sim()
	const ms = time.Millisecond
	var failed []timeoutRec
	get := func(span uint64, timeout time.Duration) {
		n.GetSpan(key, span, p2p.NoNode, 0, timeout, func(a Answer) {
			if a.OK || a.Key != key {
				t.Errorf("lookup L%d answered %+v", span, a)
			}
			failed = append(failed, timeoutRec{sim.Now(), span, false})
		})
	}
	// L3 is armed at 200 ms before L2's retry re-arms, L4 after it; L5 comes
	// due with L1 at 1 s.
	sim.Schedule(200*ms, func() { get(3, 200*ms) })
	get(1, time.Second)
	get(2, 200*ms)
	sim.Schedule(200*ms, func() { get(4, 200*ms) })
	sim.Schedule(800*ms, func() { get(5, 200*ms) })
	sim.RunUntilIdle()

	want := []timeoutRec{
		{200 * ms, 2, true},
		{400 * ms, 3, true}, {400 * ms, 2, false}, {400 * ms, 4, true},
		{600 * ms, 3, false}, {600 * ms, 4, false},
		{1000 * ms, 1, true}, {1000 * ms, 5, true},
		{1200 * ms, 5, false},
		{2000 * ms, 1, false},
	}
	if !slices.Equal(*got, want) {
		t.Fatalf("timeouts\n%v\nwant\n%v", *got, want)
	}
	wantFailed := slices.DeleteFunc(slices.Clone(want), func(r timeoutRec) bool { return r.retry })
	if !slices.Equal(failed, wantFailed) {
		t.Fatalf("failures called back\n%v\nwant\n%v", failed, wantFailed)
	}
	if len(n.pending) != 0 {
		t.Fatalf("%d lookups still pending", len(n.pending))
	}
}

// TestLookupTimeoutsParkAcrossACrash: a node down across its lookups' due
// instants times each of them out once when it recovers, in due order, and
// each retry then runs its own full timeout from there.
func TestLookupTimeoutsParkAcrossACrash(t *testing.T) {
	nw, n, key, got := blackHoled(t)
	sim := nw.Sim()
	const ms = time.Millisecond
	calls := 0
	n.GetSpan(key, 1, p2p.NoNode, 0, time.Second, func(Answer) { calls++ })
	n.GetSpan(key, 2, p2p.NoNode, 0, 200*ms, func(Answer) { calls++ })
	sim.Schedule(100*ms, func() { nw.Fail(n.Addr()) })
	sim.Schedule(1500*ms, func() { nw.Recover(n.Addr()) })
	sim.RunUntilIdle()
	want := []timeoutRec{
		{1500 * ms, 2, true}, {1500 * ms, 1, true},
		{1700 * ms, 2, false},
		{2500 * ms, 1, false},
	}
	if !slices.Equal(*got, want) || calls != 2 {
		t.Fatalf("timeouts\n%v\nwant\n%v\n(%d failures called back, want 2)", *got, want, calls)
	}
}

// TestLookupTimeoutsOutOfOrderRuntime: a runtime that fires the timers of
// lookups due close together out of order (the live runtime's callbacks race
// through goroutines of their own) still times every lookup out once on each
// try, and fails each once.
func TestLookupTimeoutsOutOfOrderRuntime(t *testing.T) {
	host := &manualHost{}
	n := New(host, nil)
	failed := map[uint64]int{}
	for span := uint64(1); span <= 3; span++ {
		host.now += time.Microsecond // due 1 µs apart
		n.GetSpan(Key("k"), span, p2p.NoNode, 0, time.Millisecond, func(a Answer) {
			if a.OK {
				t.Errorf("black-holed lookup L%d answered", span)
			}
			failed[span]++
		})
	}
	for _, i := range []int{1, 2, 0} { // the first tries' timers
		host.fire(i)
	}
	if len(n.pending) != 3 || slices.ContainsFunc(n.pending, func(r getReq) bool { return !r.retried }) || len(failed) != 0 {
		t.Fatalf("after three first timeouts: %d pending, %d failed, want every lookup retried", len(n.pending), len(failed))
	}
	for _, i := range []int{5, 3, 4} { // the retries' timers
		host.fire(i)
	}
	if len(n.pending) != 0 || len(host.fns) != 6 || failed[1] != 1 || failed[2] != 1 || failed[3] != 1 {
		t.Fatalf("%d lookups pending after every timer fired, %d timers armed, failures %v (want 0, 6 and one each)", len(n.pending), len(host.fns), failed)
	}
}

// TestWarmLookupAllocs is the lookup's allocation gate: once the node's
// pending slice and the simulator are warm, a lookup allocates only its wire
// messages, one boxed RouteMsg per routed hop and the GetResp: 2 objects on a
// one-hop route.
func TestWarmLookupAllocs(t *testing.T) {
	nw, nodes := ring(t, 60)
	key := Key("alloc-fn")
	nodes[0].Put(key, "meta", 64)
	nw.Sim().RunUntilIdle()
	var a Answer
	cb := func(got Answer) { a = got }
	oneHop := 0
	for _, n := range nodes {
		if n.vouches(key) || n.StoredUnder(key) > 0 {
			continue
		}
		look := func() {
			n.GetSpan(key, 0, p2p.NoNode, 0, time.Second, cb)
			nw.Sim().RunUntilIdle()
		}
		look()
		look()
		if !a.OK {
			t.Fatalf("lookup from %d failed", n.Addr())
		}
		if avg := testing.AllocsPerRun(20, look); avg != float64(a.Hops+1) {
			t.Fatalf("a %d-hop lookup from %d allocates %.2f objects, want %d", a.Hops, n.Addr(), avg, a.Hops+1)
		}
		if a.Hops == 1 {
			oneHop++
		}
	}
	if oneHop == 0 {
		t.Fatal("no one-hop lookup measured")
	}
}

// manualHost is a p2p.Node whose sends vanish and whose timers fire only when
// the test says so.
type manualHost struct {
	now     time.Duration
	fns     []func()
	stopped []bool
}

func (h *manualHost) fire(i int) {
	if !h.stopped[i] {
		h.stopped[i] = true
		h.fns[i]()
	}
}

func (h *manualHost) ID() p2p.NodeID             { return 0 }
func (h *manualHost) Now() time.Duration         { return h.now }
func (h *manualHost) Send(p2p.Message)           {}
func (h *manualHost) Rand() *rand.Rand           { return nil }
func (h *manualHost) Handle(string, p2p.Handler) {}
func (h *manualHost) Stop(gen uint64)            { h.stopped[gen] = true }
func (h *manualHost) After(_ time.Duration, fn func()) p2p.Timer {
	h.fns, h.stopped = append(h.fns, fn), append(h.stopped, false)
	return p2p.NewTimer(h, uint64(len(h.fns)-1))
}
