package spidernet

import (
	"strings"
	"testing"
	"time"
)

func simWithMedia(t *testing.T, seed int64, recover bool) *Sim {
	t.Helper()
	return NewSim(SimOptions{
		Seed:     seed,
		Peers:    80,
		Catalog:  MediaFunctions(),
		Recovery: recover,
	})
}

func TestFacadeComposeAndStream(t *testing.T) {
	net := simWithMedia(t, 3, false)
	fns := net.Functions()
	if len(fns) < 3 {
		t.Fatal("not enough functions deployed")
	}
	req := NewRequest().
		Functions("downscale", "stock-ticker", "requant").
		MaxDelay(5*time.Second).
		Bandwidth(50).
		Budget(24).
		Between(0, 1).
		MustBuild()
	res := net.Compose(req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	frames := net.Stream(res.Best, 10, 640, 480)
	if len(frames) != 10 {
		t.Fatalf("streamed %d/10 frames", len(frames))
	}
	f := frames[9]
	if f.Width != 320 || f.Quant != 2 || len(f.Overlays) != 1 {
		t.Fatalf("transforms not applied: %v", f)
	}
	net.Teardown(res.Best)
}

func TestFacadeRecoveryFlow(t *testing.T) {
	net := simWithMedia(t, 4, true)
	req := NewRequest().
		Functions("upscale", "requant").
		MaxDelay(10*time.Second).
		Budget(40).
		Between(0, 1).
		MustBuild()
	res := net.Compose(req)
	if !res.Ok {
		t.Fatal("composition failed")
	}
	if err := net.Establish(req, res); err != nil {
		t.Fatal(err)
	}
	// Kill a component peer and let recovery repair the session.
	var victim PeerID = -1
	for _, s := range res.Best.Comps {
		if s.Comp.Peer != req.Source && s.Comp.Peer != req.Dest {
			victim = s.Comp.Peer
			break
		}
	}
	if victim == -1 {
		t.Skip("no failable peer")
	}
	net.FailPeer(victim)
	net.RunFor(60 * time.Second)

	st := net.RecoveryStatsFor(req.Source)
	if st.FailuresDetected == 0 {
		t.Fatal("failure undetected")
	}
	if st.Switchovers+st.Reactives == 0 {
		t.Fatalf("failure not repaired: %+v", st)
	}
	g := net.ActiveGraph(req.Source, req.ID)
	if g == nil {
		t.Fatal("session not recovered")
	}
	if g.ContainsPeer(victim) {
		t.Fatal("recovered graph still uses dead peer")
	}
}

func TestRequestBuilderValidation(t *testing.T) {
	if _, err := NewRequest().Build(); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := NewRequest().Functions("a").Budget(0).Build(); err == nil {
		t.Fatal("zero budget accepted")
	}
	// DAG wiring.
	b := NewRequest().MaxDelay(time.Second).Between(0, 1)
	src := b.Function("ingest")
	l := b.Function("left")
	r := b.Function("right")
	sink := b.Function("merge")
	b.Depends(src, l).Depends(src, r).Depends(l, sink).Depends(r, sink)
	req, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(req.FGraph.Branches()); got != 2 {
		t.Fatalf("branches=%d", got)
	}
	// Cycles rejected.
	c := NewRequest()
	x := c.Function("x")
	y := c.Function("y")
	c.Depends(x, y).Depends(y, x)
	if _, err := c.Build(); err == nil {
		t.Fatal("cyclic request accepted")
	}
}

func TestRequestBuilderDefaultsAndIDs(t *testing.T) {
	r1 := NewRequest().Functions("a", "b").MustBuild()
	r2 := NewRequest().Functions("a", "b").MustBuild()
	if r1.ID == r2.ID {
		t.Fatal("request IDs not unique")
	}
	if r1.Bandwidth != 100 || r1.Budget != 16 {
		t.Fatalf("defaults wrong: %+v", r1)
	}
	// Loss requirement is transformed to additive form.
	r3 := NewRequest().Functions("a").MaxLoss(0.1).MustBuild()
	if r3.QoSReq[1] <= 0 || r3.QoSReq[1] > 1 {
		t.Fatalf("loss requirement not additive: %v", r3.QoSReq)
	}
	// Commutation via builder.
	b := NewRequest()
	a := b.Function("a")
	c := b.Function("b")
	d := b.Function("c")
	b.Depends(a, c).Depends(c, d).Commutes(c, d)
	req := b.MustBuild()
	if len(req.FGraph.Patterns()) != 2 {
		t.Fatal("commutation did not create a second pattern")
	}
}

func TestLiveFacade(t *testing.T) {
	live := NewLive(LiveOptions{Hosts: 30, Seed: 7, Speedup: 100})
	defer live.Close()
	var fns []string
	for _, f := range MediaFunctions() {
		if live.Replicas(f) > 0 {
			fns = append(fns, f)
		}
		if len(fns) == 2 {
			break
		}
	}
	if len(fns) < 2 {
		t.Skip("too few functions in small live testbed")
	}
	req := NewRequest().
		Functions(fns...).
		MaxDelay(30*time.Second).
		Budget(10).
		Between(0, 1).
		MustBuild()
	res := live.Compose(req)
	if !res.Ok {
		t.Fatal("live composition failed")
	}
	frames := live.Stream(res.Best, 5, 320, 240, 20*time.Second)
	if len(frames) == 0 {
		t.Fatal("no frames delivered")
	}
	live.Teardown(res.Best)
}

func TestFacadeSpecRoundTrip(t *testing.T) {
	xml := `<composite name="t">
  <function id="a" name="downscale"/>
  <function id="b" name="requant"/>
  <dependency from="a" to="b"/>
  <qos delayMs="4000"/>
  <resources cpu="1" memoryMB="10" bandwidthKbps="40"/>
  <probing budget="20"/>
</composite>`
	req, err := ParseSpec(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	req.ID, req.Source, req.Dest = 501, 0, 1

	net := simWithMedia(t, 12, false)
	res := net.Compose(req)
	if !res.Ok {
		t.Fatal("spec-driven composition failed")
	}
	net.Teardown(res.Best)

	out, err := RenderSpec("t", req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(strings.NewReader(string(out)))
	if err != nil {
		t.Fatal(err)
	}
	if !back.FGraph.Equal(req.FGraph) {
		t.Fatal("spec round trip changed the function graph")
	}
}

func TestFacadeAlternativeFallback(t *testing.T) {
	net := simWithMedia(t, 13, false)
	// Primary names a function nobody provides; the alternative carries it.
	req := NewRequest().
		Functions("upscale", "nonexistent-function").
		Alternative("downscale", "requant").
		MaxDelay(5*time.Second).
		Budget(24).
		Between(0, 1).
		MustBuild()
	res := net.Compose(req)
	if !res.Ok {
		t.Fatal("alternative fallback failed")
	}
	if res.Best.Pattern.Function(0) != "downscale" {
		t.Fatalf("expected the alternative shape, got %s", res.Best)
	}
	net.Teardown(res.Best)
}
