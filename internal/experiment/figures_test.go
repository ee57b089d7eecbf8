package experiment

import (
	"bytes"
	"crypto/sha256"
	"os"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// defaultRun is one simulated figure regenerated at its default
// configuration, seed 1, serially, with its trace hashed rather than kept.
// Each runs once per test binary: the shape tests read res, TestFiguresGolden
// the rendered text, and TestFiguresDeterministicAcrossWorkers compares text
// and trace against an 8-worker rerun.
type defaultRun[R any] struct {
	res R
	rendered
}

// rendered is what a run leaves behind for byte comparison: the figure as
// spiderbench prints it, and its trace.
type rendered struct {
	text string
	traceSum
}

// traceSum identifies a trace without keeping it: the hash of its JSONL
// encoding and its event count.
type traceSum struct {
	hash   [sha256.Size]byte
	events int64
}

// hashTrace runs fn with a tracer that hashes every event it is handed.
func hashTrace(fn func(obs.Tracer)) traceSum {
	h := sha256.New()
	sink := obs.NewJSONLSink(h)
	fn(sink)
	sink.Flush()
	sum := traceSum{events: sink.Count()}
	copy(sum.hash[:], h.Sum(nil))
	return sum
}

// render prints a figure the way spiderbench does: its tables, then the
// footnote line if there is one.
func render(footnote string, tables ...*metrics.Table) string {
	var b bytes.Buffer
	for _, t := range tables {
		t.Render(&b)
	}
	if footnote != "" {
		b.WriteString(footnote + "\n")
	}
	return b.String()
}

// traced memoizes one figure's default run. run regenerates the figure under
// the given sweep and returns its result and rendered text.
func traced[R any](run func(Sweep) (R, string)) func() defaultRun[R] {
	return sync.OnceValue(func() defaultRun[R] {
		var d defaultRun[R]
		d.traceSum = hashTrace(func(tr obs.Tracer) {
			d.res, d.text = run(Sweep{Seed: 1, Parallel: 1, Trace: tr})
		})
		return d
	})
}

var (
	fig8Default = traced(func(s Sweep) (Fig8Result, string) {
		cfg := DefaultFig8Config()
		cfg.Sweep = s
		res := Fig8(cfg)
		return res, render("", res.Table)
	})
	fig9Default = traced(func(s Sweep) (Fig9Result, string) {
		cfg := DefaultFig9Config()
		cfg.Sweep = s
		res := Fig9(cfg)
		return res, render(res.Footnote(), res.Table)
	})
	fig11Default = traced(func(s Sweep) (Fig11Result, string) {
		cfg := DefaultFig11Config()
		cfg.Sweep = s
		res := Fig11(cfg)
		return res, render("", res.Table)
	})
	scaleDefault = traced(func(s Sweep) (ScaleResult, string) {
		cfg := DefaultScaleConfig()
		cfg.Sweep = s
		res := Scale(cfg)
		return res, render("", res.Table)
	})
	stressDefault = traced(func(s Sweep) (StressResult, string) {
		cfg := DefaultStressConfig()
		cfg.Sweep = s
		res := Stress(cfg)
		return res, render("", res.Table)
	})
	overheadDefault = traced(func(s Sweep) (OverheadResult, string) {
		cfg := DefaultOverheadConfig()
		cfg.Sweep = s
		res := Overhead(cfg)
		return res, render("", res.Table)
	})
	federateDefault = traced(func(s Sweep) (FederateResult, string) {
		cfg := DefaultFederateConfig()
		cfg.Sweep = s
		res := Federate(cfg)
		return res, render("", res.Table)
	})
)

// goldenFigures are the simulated figures in Figures order, each with the
// text and trace of its default run.
var goldenFigures = []struct {
	name string
	run  func() rendered
}{
	{"8", func() rendered { return fig8Default().rendered }},
	{"9", func() rendered { return fig9Default().rendered }},
	{"11", func() rendered { return fig11Default().rendered }},
	{"scale", func() rendered { return scaleDefault().rendered }},
	{"stress", func() rendered { return stressDefault().rendered }},
	{"overhead", func() rendered { return overheadDefault().rendered }},
	{"federate", func() rendered { return federateDefault().rendered }},
}

// TestFiguresGolden pins every simulated figure's table, byte for byte, to
// testdata/figures.golden — the concatenated stdout of `spiderbench -fig F`
// over the golden figures, which scripts/ci.sh also compares. After a
// deliberate protocol change regenerate it with that loop.
func TestFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, g := range goldenFigures {
		got.WriteString(g.run().text)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("figure tables drifted from testdata/figures.golden:\n%s", got.String())
	}
}

// TestFiguresDeterministicAcrossWorkers is the determinism contract of the
// parallel runner, over the registry: every simulated figure run through
// Figures with 8 workers must render the tables and emit the trace, byte for
// byte, of its serial default run. Cells emit into private spills replayed in
// cell-index order, which is exactly the serial emission order.
func TestFiguresDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("every figure runs twice")
	}
	serial := make(map[string]func() rendered)
	for _, g := range goldenFigures {
		serial[g.name] = g.run
	}
	for _, f := range Figures {
		if !f.Simulated {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			if serial[f.Name] == nil {
				t.Fatal("simulated figure has no default run in goldenFigures")
			}
			want := serial[f.Name]()
			var text string
			trace := hashTrace(func(tr obs.Tracer) {
				outputs, footnote := f.Run(Common{Sweep: Sweep{Seed: 1, Parallel: 8, Trace: tr}})
				var tables []*metrics.Table
				for _, o := range outputs {
					tables = append(tables, o.Table)
				}
				text = render(footnote, tables...)
			})
			if text != want.text {
				t.Errorf("tables differ between 1 and 8 workers:\n%s---\n%s", want.text, text)
			}
			if want.events == 0 {
				t.Error("serial run emitted no events; the trace comparison is vacuous")
			}
			if trace != want.traceSum {
				t.Errorf("traces differ between 1 and 8 workers (%d vs %d events)", want.events, trace.events)
			}
		})
	}
}
