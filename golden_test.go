package spidernet

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden end-to-end trace instead of comparing against it")

const goldenPath = "testdata/golden_trace.jsonl.gz"

// goldenScenario replays the canonical end-to-end scenario — a small
// deployment with the overload control plane on, composing, holding, and
// tearing down a fixed request schedule — and returns the full JSONL event
// trace it emits.
func goldenScenario() []byte {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	c := cluster.New(cluster.Options{
		Seed:    7,
		IPNodes: 300,
		Peers:   30,
		Catalog: goldenCatalog(12),
		BCP:     bcp.DefaultConfig(),
		Load: &cluster.LoadOptions{
			Model: qos.LoadModel{Base: 5 * time.Millisecond, Cap: 0.95},
			Aware: true,
			Shed:  0.8,
		},
		Trace: sink,
	})
	gen := workload.NewGenerator(workload.Config{
		Catalog:     goldenCatalog(12),
		Peers:       30,
		MinFuncs:    2,
		MaxFuncs:    3,
		Budget:      8,
		DelayReqMin: 200,
		DelayReqMax: 600,
	}, rand.New(rand.NewSource(99)))

	for i := 0; i < 12; i++ {
		req := gen.Next()
		at := time.Duration(i) * 400 * time.Millisecond
		c.Sim.Schedule(at-c.Sim.Now(), func() {
			eng := c.Peers[int(req.Source)].Engine
			eng.Compose(req, func(res bcp.Result) {
				if res.Ok {
					c.Sim.Schedule(5*time.Second, func() { eng.Teardown(res.Best) })
				}
			})
		})
	}
	c.Sim.Run(30 * time.Second)
	if err := sink.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func goldenCatalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn%d", i)
	}
	return out
}

// TestGoldenTrace is the end-to-end regression gate: the canonical scenario
// must reproduce the committed trace byte for byte. Run with -update after
// an intentional protocol change and review the diff like any other code.
func TestGoldenTrace(t *testing.T) {
	got := goldenScenario()
	if len(got) == 0 {
		t.Fatal("golden scenario emitted no events")
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		var gz bytes.Buffer
		w := gzip.NewWriter(&gz)
		if _, err := w.Write(got); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, gz.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden trace updated: %d bytes JSONL (%d gzipped) -> %s", len(got), gz.Len(), goldenPath)
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("missing golden trace (run `go test -run TestGoldenTrace -update` to create it): %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	if bytes.Equal(got, want) {
		return
	}
	// Locate the first divergent line so the failure is actionable.
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("trace diverges from golden at line %d:\n got: %s\nwant: %s\n(%d vs %d lines; -update rewrites after intentional changes)",
				i+1, gotLines[i], wantLines[i], len(gotLines), len(wantLines))
		}
	}
	t.Fatalf("trace is a strict prefix/extension of golden: %d vs %d lines (-update rewrites after intentional changes)",
		len(gotLines), len(wantLines))
}

// TestGoldenTraceInvariants keeps the committed artifact honest: the golden
// trace itself must satisfy the protocol invariant checker.
func TestGoldenTraceInvariants(t *testing.T) {
	c := obs.NewChecker()
	if err := obs.StreamTrace(goldenPath, func(ev obs.Event) error { c.Add(ev); return nil }); err != nil {
		t.Skipf("golden trace unreadable (run -update first): %v", err)
	}
	for _, v := range c.Finish() {
		t.Errorf("golden trace violates invariant: %v", v)
	}
}
