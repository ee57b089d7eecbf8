package tcpnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/dht"
	"repro/internal/fgraph"
	"repro/internal/media"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/service"
)

// deployment spins up n real TCP peers on localhost with the full protocol
// stack: DHT + registry + BCP engine + media data plane.
type deployment struct {
	transports []*Transport
	engines    []*bcp.Engine
	registries []*registry.Registry
	medias     []*media.Node
	comps      [][]service.Component
}

func deploy(t *testing.T, n int, fns []string) *deployment {
	t.Helper()
	RegisterTypes()
	addrs := make(map[p2p.NodeID]string, n)
	d := &deployment{}

	// Flat oracle: 1ms paths, unconstrained bandwidth — the test exercises
	// the transport, not admission.
	oracle := flatOracle{}
	var dhtNodes []*dht.Node
	for i := 0; i < n; i++ {
		tr, err := New(p2p.NodeID(i), "127.0.0.1:0", addrs, 1)
		if err != nil {
			t.Fatal(err)
		}
		addrs[p2p.NodeID(i)] = tr.Addr()
		d.transports = append(d.transports, tr)
	}
	t.Cleanup(func() {
		for _, tr := range d.transports {
			tr.Close()
		}
	})
	for i := 0; i < n; i++ {
		host := d.transports[i].Node()
		dn := dht.New(host, nil)
		reg := registry.New(dn)
		fn := fns[i%len(fns)]
		comp := service.Component{
			ID:       fmt.Sprintf("p%d/%s", i, fn),
			Function: fn,
			Peer:     p2p.NodeID(i),
		}
		var cap qos.Resources
		cap[qos.CPU] = 10
		cap[qos.Memory] = 100
		eng := bcp.NewEngine(host, nil, nil, qos.NewLedger(cap), reg, oracle, []service.Component{comp}, bcp.DefaultConfig())
		med := media.Attach(host, eng.LocalComponent)
		d.engines = append(d.engines, eng)
		d.registries = append(d.registries, reg)
		d.medias = append(d.medias, med)
		d.comps = append(d.comps, []service.Component{comp})
		dhtNodes = append(dhtNodes, dn)
	}
	// Static DHT build before traffic.
	dht.Build(dhtNodes)
	// Register all components through the real sockets.
	for i, tr := range d.transports {
		i := i
		tr.Exec(func() {
			for _, c := range d.comps[i] {
				d.registries[i].Register(c)
			}
		})
	}
	time.Sleep(300 * time.Millisecond)
	return d
}

type flatOracle struct{}

func (flatOracle) Path(a, b p2p.NodeID) (float64, float64, bool)     { return 1, 1e9, true }
func (flatOracle) PathLatency(a, b p2p.NodeID) (float64, bool)       { return 1, true }
func (flatOracle) AllocBandwidth(a, b p2p.NodeID, kbps float64) bool { return true }
func (flatOracle) ReleaseBandwidth(a, b p2p.NodeID, kbps float64)    {}

func TestDHTOverRealSockets(t *testing.T) {
	d := deploy(t, 6, []string{"alpha", "beta"})
	got := make(chan int, 1)
	d.transports[5].Exec(func() {
		d.registries[5].Discover(registry.FunctionKey("alpha"), 0, registry.Listing{Root: p2p.NoNode}, 2*time.Second, func(a dht.Answer) {
			if !a.OK {
				got <- -1
				return
			}
			got <- len(registry.Answered(nil, a).Comps)
		})
	})
	select {
	case n := <-got:
		if n != 3 { // peers 0, 2, 4 host "alpha"
			t.Fatalf("discovered %d replicas, want 3", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("discovery over TCP timed out")
	}
}

func TestComposeOverRealSockets(t *testing.T) {
	d := deploy(t, 8, []string{"alpha", "beta"})
	q := qos.Unbounded()
	q[qos.Delay] = 10000
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	req := &service.Request{
		ID: 1, FGraph: fgraph.Linear("alpha", "beta"), QoSReq: q, Res: res,
		Bandwidth: 10, Source: 1, Dest: 3, Budget: 8,
	}
	done := make(chan bcp.Result, 1)
	d.transports[1].Exec(func() {
		d.engines[1].Compose(req, func(r bcp.Result) { done <- r })
	})
	select {
	case r := <-done:
		if !r.Ok {
			t.Fatal("composition over TCP failed")
		}
		if len(r.Best.Comps) != 2 {
			t.Fatalf("incomplete graph %v", r.Best)
		}
		// Each hop's ingress link and the leaf's egress link crossed the
		// sockets inside the probes and reports the graph was merged from.
		if len(r.Best.Links) != 3 || r.Best.Links[0].FromFn != -1 || r.Best.Links[2].ToFn != -1 {
			t.Fatalf("graph links %+v, want sender→alpha→beta→receiver", r.Best.Links)
		}
		// Stream a frame through the composed graph over the sockets.
		delivered := make(chan media.Frame, 1)
		d.transports[3].Exec(func() {
			d.medias[3].OnDeliver(func(f media.Frame) {
				select {
				case delivered <- f:
				default:
				}
			})
		})
		d.transports[1].Exec(func() {
			d.medias[1].SendFrame(r.Best, media.NewFrame(0, 320, 240))
		})
		select {
		case f := <-delivered:
			if len(f.Trace) != 2 {
				t.Fatalf("frame trace %v", f.Trace)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("frame never crossed the sockets")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("composition over TCP timed out")
	}
}

func TestTransportSelfLoopback(t *testing.T) {
	RegisterTypes()
	addrs := make(map[p2p.NodeID]string)
	tr, err := New(0, "127.0.0.1:0", addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	addrs[0] = tr.Addr()
	got := make(chan struct{})
	tr.Node().Handle("self", func(_ p2p.Node, _ p2p.Message) { close(got) })
	tr.Node().Send(p2p.Message{Type: "self", To: 0})
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("loopback message lost")
	}
}

func TestSendToUnknownPeerDropsSilently(t *testing.T) {
	RegisterTypes()
	addrs := make(map[p2p.NodeID]string)
	tr, err := New(0, "127.0.0.1:0", addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	addrs[0] = tr.Addr()
	sent := make(chan struct{})
	go func() {
		tr.Node().Send(p2p.Message{Type: "x", To: 99}) // no address: dropped
		close(sent)
	}()
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("send to a peer with no address blocked")
	}
}

func TestGobRoundTripOfProtocolPayloads(t *testing.T) {
	// A probe with nested request/pattern survives the wire intact.
	RegisterTypes()
	addrs := make(map[p2p.NodeID]string)
	a, err := New(0, "127.0.0.1:0", addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(1, "127.0.0.1:0", addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs[0], addrs[1] = a.Addr(), b.Addr()

	fg := fgraph.Linear("x", "y")
	req := &service.Request{ID: 7, FGraph: fg, Budget: 3, Source: 0, Dest: 1}
	probe := bcp.Probe{
		ReqID: 7, Req: req, Pattern: fg, Budget: 3, CurFn: 0, CurCompID: "c0",
		Visited: []bcp.Hop{{Fn: 0, Snap: service.Snapshot{Comp: service.Component{ID: "c0", Function: "x"}}}},
	}
	got := make(chan *bcp.Probe, 1)
	b.Node().Handle(bcp.MsgProbe, func(_ p2p.Node, msg p2p.Message) {
		got <- msg.Payload.(*bcp.Probe)
	})
	a.Node().Send(p2p.Message{Type: bcp.MsgProbe, To: 1, Payload: &probe})
	select {
	case p := <-got:
		if p.ReqID != 7 || p.Req.ID != 7 || p.Pattern.NumFunctions() != 2 {
			t.Fatalf("payload mangled: %+v", p)
		}
		if p.Pattern.Function(1) != "y" || len(p.Visited) != 1 || p.Visited[0].Snap.Comp.ID != "c0" {
			t.Fatalf("nested fields mangled: %+v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe never arrived")
	}
}
