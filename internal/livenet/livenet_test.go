package livenet

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/fgraph"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

func flatLat(n int, ms float64) [][]float64 {
	lat := make([][]float64, n)
	for i := range lat {
		lat[i] = make([]float64, n)
		for j := range lat[i] {
			if i != j {
				lat[i][j] = ms
			}
		}
	}
	return lat
}

func TestSendDeliver(t *testing.T) {
	nw := NewNetwork(flatLat(2, 1), 1)
	defer nw.Close()
	reg := obs.NewRegistry()
	nw.SetObs(obs.Counting(nil, reg, nil), reg, nil)
	a := nw.AddNode(0, 1)
	b := nw.AddNode(1, 1)
	got := make(chan p2p.Message, 1)
	b.Handle("ping", func(_ p2p.Node, msg p2p.Message) { got <- msg })
	a.Send(p2p.Message{Type: "ping", To: 1, Size: 10, Payload: "x"})
	select {
	case m := <-got:
		if m.From != 0 || m.Payload != "x" {
			t.Fatalf("msg=%+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
	}
	if tot := reg.Totals(); tot.MsgsSent != 1 || tot.BytesSent != 10 {
		t.Fatalf("counters=%+v", tot)
	}
}

func TestFailedNodeDropsTraffic(t *testing.T) {
	nw := NewNetwork(flatLat(2, 1), 1)
	defer nw.Close()
	reg := obs.NewRegistry()
	nw.SetObs(obs.Counting(nil, reg, nil), reg, nil)
	a := nw.AddNode(0, 1)
	nw.AddNode(1, 1).Handle("ping", func(_ p2p.Node, _ p2p.Message) {
		t.Error("delivered to failed node")
	})
	nw.Fail(1)
	a.Send(p2p.Message{Type: "ping", To: 1})
	time.Sleep(100 * time.Millisecond)
	if tot := reg.Totals(); tot.MsgsSent != 1 || tot.MsgsDrop != 1 {
		t.Fatalf("counters=%+v", tot)
	}
	if nw.Alive(1) {
		t.Fatal("failed node reported alive")
	}
}

func TestTimerAndCancel(t *testing.T) {
	nw := NewNetwork(flatLat(1, 1), 1)
	defer nw.Close()
	n := nw.AddNode(0, 1)
	var fired, cancelled atomic.Int32
	done := make(chan struct{})
	n.After(20*time.Millisecond, func() {
		fired.Add(1)
		close(done)
	})
	c := n.After(20*time.Millisecond, func() { cancelled.Add(1) })
	c.Stop()
	c.Stop() // a second Stop is a no-op
	var zero p2p.Timer
	zero.Stop() // so is Stop on a timer never armed
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	time.Sleep(50 * time.Millisecond)
	if fired.Load() != 1 || cancelled.Load() != 0 {
		t.Fatalf("fired=%d cancelled=%d", fired.Load(), cancelled.Load())
	}
}

// TestTimerStopAfterFireAndFromTheLoop: Stop on a timer that already fired is
// a no-op, a handle kept past its firing does not stop a timer armed later,
// and Stop from the node's own loop — where protocol code calls it — races
// neither the clock goroutine nor the callback (run under -race).
func TestTimerStopAfterFireAndFromTheLoop(t *testing.T) {
	nw := NewNetwork(flatLat(1, 1), 1)
	defer nw.Close()
	n := nw.AddNode(0, 1)
	var fired atomic.Int32
	first := make(chan p2p.Timer, 1)
	done := make(chan struct{})
	first <- n.After(time.Millisecond, func() {
		fired.Add(1)
		old := <-first
		old.Stop() // after its own firing
		n.After(5*time.Millisecond, func() {
			fired.Add(1)
			close(done)
		})
		old.Stop() // must not stop the timer just armed
		// Arm and stop from the loop while the clock is running.
		for i := 0; i < 50; i++ {
			n.After(time.Duration(i%3)*time.Millisecond, func() { fired.Add(100) }).Stop()
		}
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("the timer armed after the stale Stop never fired")
	}
	time.Sleep(30 * time.Millisecond)
	if got := fired.Load(); got != 2 {
		t.Fatalf("fired=%d, want 2 (a stopped timer ran)", got)
	}
}

// TestTimersWaitForRecovery pins the crash model on real time: a crash
// pauses a peer's timers. The timers due at 10 and 60 ms while the peer is
// down for 150 ms fire once each when it recovers, in due order; the one
// stopped while it waits never fires; one armed 200 ms before its due time
// just ahead of the recovery fires on time, after them. The margins (50 ms
// between the paused timers, 90 ms from the last to the recovery) hold on a
// loaded 2-core runner under -race.
func TestTimersWaitForRecovery(t *testing.T) {
	nw := NewNetwork(flatLat(1, 1), 1)
	defer nw.Close()
	n := nw.AddNode(0, 1)
	fired := make(chan string, 8)
	after := func(d time.Duration, name string) p2p.Timer {
		return n.After(d, func() { fired <- name })
	}
	nw.Fail(0)
	after(60*time.Millisecond, "second")
	after(10*time.Millisecond, "first")
	stopped := after(30*time.Millisecond, "stopped")
	time.Sleep(150 * time.Millisecond)
	stopped.Stop()
	if len(fired) != 0 {
		t.Fatalf("%s fired on a crashed peer", <-fired)
	}
	armed := time.Now()
	after(200*time.Millisecond, "on-time")
	nw.Recover(0)
	for _, want := range []string{"first", "second", "on-time"} {
		select {
		case got := <-fired:
			if got != want {
				t.Fatalf("fired %s, want %s", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never fired", want)
		}
	}
	if el := time.Since(armed); el < 200*time.Millisecond {
		t.Fatalf("on-time fired after %v, before its 200ms", el)
	}
	time.Sleep(50 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("%s fired as well", <-fired)
	}
}

func TestSpeedupCompressesLatency(t *testing.T) {
	nw := NewNetwork(flatLat(2, 200), 20) // 200ms latency at 20x -> 10ms
	defer nw.Close()
	a := nw.AddNode(0, 1)
	b := nw.AddNode(1, 1)
	got := make(chan time.Time, 1)
	b.Handle("ping", func(_ p2p.Node, _ p2p.Message) { got <- time.Now() })
	sent := time.Now()
	a.Send(p2p.Message{Type: "ping", To: 1})
	select {
	case at := <-got:
		if el := at.Sub(sent); el > 150*time.Millisecond {
			t.Fatalf("delivery took %v; speedup not applied", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never delivered")
	}
	if nw.Unscale(10*time.Millisecond) != 200*time.Millisecond {
		t.Fatal("Unscale wrong")
	}
}

func TestExecRunsOnNodeLoop(t *testing.T) {
	nw := NewNetwork(flatLat(1, 1), 1)
	defer nw.Close()
	nw.AddNode(0, 1)
	done := make(chan struct{})
	nw.Exec(0, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Exec never ran")
	}
}

// TestTestbedComposeEndToEnd composes across live peers with a counter
// registry and no trace sink: the registry still folds the probe and DHT
// events.
func TestTestbedComposeEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tb := NewTestbed(TestbedOptions{Hosts: 40, Seed: 5, Speedup: 50, Obs: reg})
	defer tb.Close()

	// Pick three functions that actually have replicas.
	var fns []string
	for _, f := range media.Functions() {
		if tb.Replicas(f) > 0 {
			fns = append(fns, f)
		}
		if len(fns) == 3 {
			break
		}
	}
	if len(fns) < 3 {
		t.Skip("testbed too small for 3 distinct functions")
	}
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	q := qos.Unbounded()
	q[qos.Delay] = 10000
	req := &service.Request{
		ID: 1, FGraph: fgraph.Linear(fns...), QoSReq: q, Res: res,
		Bandwidth: 50, Source: 0, Dest: 1, Budget: 12,
	}
	r := tb.Compose(req)
	if !r.Ok {
		t.Fatal("live composition failed")
	}
	if len(r.Best.Comps) != 3 {
		t.Fatalf("incomplete graph: %v", r.Best)
	}
	if r.SetupTime <= 0 {
		t.Fatal("no setup time measured")
	}
	// Protocol-time setup spans at least the collect timeout.
	if tb.Net.Unscale(r.SetupTime) < 500*time.Millisecond {
		t.Fatalf("unscaled setup time %v implausibly low", tb.Net.Unscale(r.SetupTime))
	}
	if tot := reg.Totals(); tot.ProbesSent == 0 || tot.BudgetSpent == 0 || tot.DHTHops == 0 {
		t.Fatalf("counters-only run folded probes_sent=%d probe_budget_spent=%d dht_hops=%d",
			tot.ProbesSent, tot.BudgetSpent, tot.DHTHops)
	}
}

func TestTestbedConcurrentCompositions(t *testing.T) {
	mem := &obs.MemSink{}
	tb := NewTestbed(TestbedOptions{Hosts: 40, Seed: 6, Speedup: 50, Trace: mem})
	defer tb.Close()
	var fns []string
	for _, f := range media.Functions() {
		if tb.Replicas(f) > 0 {
			fns = append(fns, f)
		}
		if len(fns) == 2 {
			break
		}
	}
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	q := qos.Unbounded()
	q[qos.Delay] = 10000

	const N = 8
	results := make(chan bool, N)
	for i := 0; i < N; i++ {
		i := i
		go func() {
			req := &service.Request{
				ID: uint64(100 + i), FGraph: fgraph.Linear(fns...), QoSReq: q,
				Res: res, Bandwidth: 10,
				Source: p2p.NodeID(i * 2), Dest: p2p.NodeID(i*2 + 1), Budget: 8,
			}
			results <- tb.Compose(req).Ok
		}()
	}
	okCount := 0
	for i := 0; i < N; i++ {
		select {
		case ok := <-results:
			if ok {
				okCount++
			}
		case <-time.After(30 * time.Second):
			t.Fatal("composition timed out")
		}
	}
	if okCount == 0 {
		t.Fatal("all concurrent compositions failed")
	}

	// Peer goroutines stamp an event before they take the sink, so the
	// trace's clock goes backward here and there; it is still one run.
	tb.Close()
	b, c := span.NewBuilder(), obs.NewChecker()
	for _, ev := range mem.Events() {
		b.Add(ev)
		c.Add(ev)
	}
	f := b.Build()
	if f.Runs != 1 || len(f.Trees) != N || len(f.Orphans) != 0 {
		t.Errorf("trace reads as %d runs, %d trees, %d orphans; want 1, %d, 0", f.Runs, len(f.Trees), len(f.Orphans), N)
	}
	if vs := c.Finish(); len(vs) != 0 {
		t.Errorf("live trace violates %d invariants: %v", len(vs), vs)
	}
}

// TestLossHardensTheTestbed: a testbed whose wire drops messages hardens
// every engine for it, one on a clean wire hardens none, and switching the
// loss off turns hardening off.
func TestLossHardensTheTestbed(t *testing.T) {
	want := func(tb *Testbed, stage string, hardened bool) {
		t.Helper()
		for i, p := range tb.Peers {
			if p.Engine.Hardened() != hardened {
				t.Errorf("%s: engine %d hardened=%v", stage, i, p.Engine.Hardened())
			}
		}
	}
	clean := NewTestbed(TestbedOptions{Hosts: 12, Seed: 5, Speedup: 50})
	want(clean, "clean wire", false)
	clean.Close()
	lossy := NewTestbed(TestbedOptions{Hosts: 12, Seed: 5, Speedup: 50, Loss: 0.1})
	want(lossy, "loss 0.1", true)
	lossy.Net.SetLoss(0, 5)
	want(lossy, "loss switched off", false)
	lossy.Close()
}

// TestSoftHoldsDrainLive: a batch of concurrent compositions leaves soft
// reservations on the candidates selection did not pick, which only their
// expiry releases; once SoftTimeout has passed on the compressed clock no
// peer holds one. Each ledger is read on its own peer's loop.
func TestSoftHoldsDrainLive(t *testing.T) {
	tb := NewTestbed(TestbedOptions{Hosts: 40, Seed: 6, Speedup: 50})
	defer tb.Close()
	var fns []string
	for _, f := range media.Functions() {
		if tb.Replicas(f) > 1 {
			fns = append(fns, f)
		}
		if len(fns) == 2 {
			break
		}
	}
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	q := qos.Unbounded()
	q[qos.Delay] = 10000
	softHolders := func() int {
		held := make(chan bool, len(tb.Peers))
		for i, p := range tb.Peers {
			tb.Net.Exec(p2p.NodeID(i), func() { held <- p.Ledger.SoftAllocated() != (qos.Resources{}) })
		}
		n := 0
		for range tb.Peers {
			if <-held {
				n++
			}
		}
		return n
	}

	const N = 8
	results := make(chan bool, N)
	for i := 0; i < N; i++ {
		req := &service.Request{
			ID: uint64(200 + i), FGraph: fgraph.Linear(fns...), QoSReq: q,
			Res: res, Bandwidth: 10,
			Source: p2p.NodeID(i * 2), Dest: p2p.NodeID(i*2 + 1), Budget: 8,
		}
		go func() { results <- tb.Compose(req).Ok }()
	}
	for i := 0; i < N; i++ {
		select {
		case <-results:
		case <-time.After(30 * time.Second):
			t.Fatal("composition timed out")
		}
	}
	n := softHolders()
	if n == 0 {
		t.Fatal("no peer soft-holds anything after the batch: the test drains nothing")
	}
	t.Logf("%d of %d peers soft-hold a reservation after the batch", n, len(tb.Peers))
	timeout := bcp.DefaultConfig().SoftTimeout
	tb.Settle(timeout + time.Second)
	if n = softHolders(); n != 0 {
		t.Fatalf("%d peers still soft-hold a reservation %v after SoftTimeout", n, timeout)
	}
}
