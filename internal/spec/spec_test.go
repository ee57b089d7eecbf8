package spec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fgraph"
	"repro/internal/qos"
)

const sample = `
<composite name="customized-stream">
  <function id="down" name="downscale"/>
  <function id="tick" name="stock-ticker"/>
  <function id="rq"   name="requant"/>
  <dependency from="down" to="tick"/>
  <dependency from="tick" to="rq"/>
  <commutation a="tick" b="rq"/>
  <qos delayMs="1500" lossRate="0.01"/>
  <resources cpu="1" memoryMB="10" bandwidthKbps="100"/>
  <failure bound="0.05"/>
  <probing budget="24"/>
  <variant>
    <function id="down" name="downscale"/>
    <function id="rq"   name="requant"/>
    <dependency from="down" to="rq"/>
  </variant>
</composite>`

func TestParseFull(t *testing.T) {
	req, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if req.FGraph.NumFunctions() != 3 {
		t.Fatalf("functions=%d", req.FGraph.NumFunctions())
	}
	if req.FGraph.Function(0) != "downscale" || req.FGraph.Function(2) != "requant" {
		t.Fatalf("names=%v", req.FGraph.Functions())
	}
	if len(req.FGraph.Commutations()) != 1 {
		t.Fatal("commutation link lost")
	}
	if req.QoSReq[qos.Delay] != 1500 {
		t.Fatalf("delay req=%v", req.QoSReq[qos.Delay])
	}
	if got := qos.AdditiveToLoss(req.QoSReq[qos.Loss]); got < 0.0099 || got > 0.0101 {
		t.Fatalf("loss req=%v", got)
	}
	if req.Res[qos.CPU] != 1 || req.Res[qos.Memory] != 10 || req.Bandwidth != 100 {
		t.Fatalf("resources=%v bw=%v", req.Res, req.Bandwidth)
	}
	if req.FailReq != 0.05 || req.Budget != 24 {
		t.Fatalf("failure=%v budget=%d", req.FailReq, req.Budget)
	}
	if len(req.Variants) != 1 || req.Variants[0].NumFunctions() != 2 {
		t.Fatalf("variants=%v", req.Variants)
	}
}

func TestParseDefaults(t *testing.T) {
	minimal := `<composite name="m"><function id="a" name="x"/></composite>`
	req, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if req.Budget != 16 {
		t.Fatalf("default budget=%d", req.Budget)
	}
	// Unspecified QoS must be unbounded, not zero (which would be
	// unsatisfiable).
	if req.QoSReq[qos.Delay] < 1e17 {
		t.Fatalf("delay default=%v, want unbounded", req.QoSReq[qos.Delay])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<composite name="e"></composite>`,          // no functions
		`<composite><function id="a"/></composite>`, // missing name
		`<composite><function id="a" name="x"/><function id="a" name="y"/><dependency from="a" to="a"/></composite>`,                              // dup id
		`<composite><function id="a" name="x"/><dependency from="a" to="zz"/></composite>`,                                                        // unknown id
		`<composite><function id="a" name="x"/><function id="b" name="y"/><dependency from="a" to="b"/><dependency from="b" to="a"/></composite>`, // cycle
		`not xml at all`,
	}
	for i, s := range bad {
		if _, err := Parse(strings.NewReader(s)); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// fanOutSpec declares s -> k parallel functions -> t: k branch paths.
func fanOutSpec(k int) string {
	var b strings.Builder
	b.WriteString(`<composite name="fan"><function id="s" name="fn0"/><function id="t" name="fn1"/>`)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, `<function id="m%d" name="fn%d"/><dependency from="s" to="m%d"/><dependency from="m%d" to="t"/>`, i, i+2, i, i)
	}
	b.WriteString(`</composite>`)
	return b.String()
}

// TestParseRefusesTooManyBranches: a specification may declare no more
// branch paths than fgraph.MaxBranches; one at the cap parses whole.
func TestParseRefusesTooManyBranches(t *testing.T) {
	req, err := Parse(strings.NewReader(fanOutSpec(fgraph.MaxBranches)))
	if err != nil || len(req.FGraph.Branches()) != fgraph.MaxBranches {
		t.Fatalf("%d-branch fan-out: %v", fgraph.MaxBranches, err)
	}
	if _, err := Parse(strings.NewReader(fanOutSpec(fgraph.MaxBranches + 1))); err == nil || !strings.Contains(err.Error(), "branch paths") {
		t.Fatalf("%d-branch fan-out: err %v", fgraph.MaxBranches+1, err)
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	req, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Render("customized-stream", req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if !back.FGraph.Equal(req.FGraph) {
		t.Fatal("function graph changed in round trip")
	}
	if back.Budget != req.Budget || back.Bandwidth != req.Bandwidth || back.FailReq != req.FailReq {
		t.Fatal("scalar fields changed in round trip")
	}
	if len(back.Variants) != len(req.Variants) || !back.Variants[0].Equal(req.Variants[0]) {
		t.Fatal("variants changed in round trip")
	}
	if d := back.QoSReq[qos.Delay] - req.QoSReq[qos.Delay]; d > 1e-9 || d < -1e-9 {
		t.Fatal("delay requirement changed in round trip")
	}
}
