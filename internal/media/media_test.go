package media

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/service"
	"repro/internal/simnet"
)

func TestTransforms(t *testing.T) {
	f := NewFrame(1, 640, 480)

	up, _ := ForFunction(FnUpScale)
	g := up.Apply(f)
	if g.Width != 1280 || g.Height != 960 {
		t.Fatalf("upscale: %v", g)
	}
	down, _ := ForFunction(FnDownScale)
	g = down.Apply(f)
	if g.Width != 320 || g.Height != 240 {
		t.Fatalf("downscale: %v", g)
	}
	sub, _ := ForFunction(FnSubImage)
	g = sub.Apply(f)
	if g.Width != 320 || g.Height != 240 || !g.Cropped {
		t.Fatalf("subimage: %v", g)
	}
	rq, _ := ForFunction(FnRequant)
	g = rq.Apply(rq.Apply(f))
	if g.Quant != 3 {
		t.Fatalf("requant: %v", g)
	}
	wt, _ := ForFunction(FnWeatherTicker)
	st, _ := ForFunction(FnStockTicker)
	g = st.Apply(wt.Apply(f))
	if len(g.Overlays) != 2 || g.Overlays[0] != "weather" || g.Overlays[1] != "stock" {
		t.Fatalf("tickers: %v", g.Overlays)
	}
	// Originals untouched (value semantics).
	if f.Quant != 1 || len(f.Overlays) != 0 {
		t.Fatal("transform mutated its input")
	}
}

func TestDownscaleFloorsAtOne(t *testing.T) {
	d, _ := ForFunction(FnDownScale)
	f := NewFrame(0, 1, 1)
	g := d.Apply(f)
	if g.Width != 1 || g.Height != 1 {
		t.Fatalf("floor: %v", g)
	}
}

func TestBytesShrinkWithQuantization(t *testing.T) {
	f := NewFrame(0, 640, 480)
	rq, _ := ForFunction(FnRequant)
	g := rq.Apply(f)
	if g.Bytes() >= f.Bytes() {
		t.Fatal("requantization did not shrink the frame")
	}
}

func TestForFunctionUnknown(t *testing.T) {
	if _, ok := ForFunction("no-such"); ok {
		t.Fatal("unknown function resolved")
	}
	for _, fn := range Functions() {
		if _, ok := ForFunction(fn); !ok {
			t.Fatalf("catalogue function %q unresolvable", fn)
		}
	}
}

// TestStreamEndToEnd pushes frames through a composed 3-component graph
// over the simulated network and checks every transform was applied in
// order at the destination.
func TestStreamEndToEnd(t *testing.T) {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(2*time.Millisecond), rand.New(rand.NewSource(1)))

	fg := fgraph.Linear(FnDownScale, FnStockTicker, FnRequant)
	comps := []service.Component{
		{ID: "p1/down", Function: FnDownScale, Peer: 1},
		{ID: "p2/stock", Function: FnStockTicker, Peer: 2},
		{ID: "p3/requant", Function: FnRequant, Peer: 3},
	}
	graph := &service.Graph{
		Pattern: fg,
		Comps:   make([]service.Snapshot, len(comps)),
		Req:     &service.Request{ID: 9, Source: 0, Dest: 4},
	}
	for fn, c := range comps {
		graph.Comps[fn] = service.Snapshot{Comp: c}
	}

	// Source (0), three component hosts (1..3), destination (4).
	hostComps := map[p2p.NodeID]service.Component{1: comps[0], 2: comps[1], 3: comps[2]}
	var src *Node
	var got []Frame
	for id := p2p.NodeID(0); id <= 4; id++ {
		id := id
		node := Attach(nw.AddNode(id), func(cid string) *service.Component {
			if c, ok := hostComps[id]; ok && c.ID == cid {
				return &c
			}
			return nil
		})
		if id == 0 {
			src = node
		}
		if id == 4 {
			node.OnDeliver(func(f Frame) { got = append(got, f) })
		}
	}

	for i := 0; i < 5; i++ {
		if err := src.SendFrame(graph, NewFrame(i, 640, 480)); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntilIdle()

	if len(got) != 5 {
		t.Fatalf("delivered %d frames, want 5", len(got))
	}
	for i, f := range got {
		if f.Seq != i {
			t.Fatalf("frame order broken: %v", f)
		}
		if f.Width != 320 || f.Height != 240 {
			t.Fatalf("downscale not applied: %v", f)
		}
		if len(f.Overlays) != 1 || f.Overlays[0] != "stock" {
			t.Fatalf("ticker not applied: %v", f)
		}
		if f.Quant != 2 {
			t.Fatalf("requant not applied: %v", f)
		}
		want := []string{"p1/down", "p2/stock", "p3/requant"}
		if len(f.Trace) != 3 {
			t.Fatalf("trace=%v", f.Trace)
		}
		for j, id := range want {
			if f.Trace[j] != id {
				t.Fatalf("trace order: %v", f.Trace)
			}
		}
	}
}

func TestStreamDropsWhenComponentGone(t *testing.T) {
	sim := simnet.NewSim()
	nw := simnet.NewNetwork(sim, simnet.ConstantLatency(time.Millisecond), rand.New(rand.NewSource(2)))
	fg := fgraph.Linear(FnRequant)
	graph := &service.Graph{
		Pattern: fg,
		Comps: []service.Snapshot{
			{Comp: service.Component{ID: "p1/rq", Function: FnRequant, Peer: 1}},
		},
		Req: &service.Request{ID: 1, Source: 0, Dest: 2},
	}
	src := Attach(nw.AddNode(0), func(string) *service.Component { return nil })
	Attach(nw.AddNode(1), func(string) *service.Component {
		return nil // component vanished
	})
	delivered := false
	dst := Attach(nw.AddNode(2), func(string) *service.Component { return nil })
	dst.OnDeliver(func(Frame) { delivered = true })

	if err := src.SendFrame(graph, NewFrame(0, 100, 100)); err != nil {
		t.Fatal(err)
	}
	sim.RunUntilIdle()
	if delivered {
		t.Fatal("frame delivered through a missing component")
	}
}

func TestFrameString(t *testing.T) {
	f := NewFrame(3, 10, 10)
	if s := f.String(); s == "" {
		t.Fatal("empty String")
	}
}
