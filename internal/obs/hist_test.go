package obs

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramBounds(t *testing.T) {
	exp := ExpBounds(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i, b := range exp {
		if b != want[i] {
			t.Fatalf("ExpBounds=%v want %v", exp, want)
		}
	}
	lin := LinearBounds(1, 1, 3)
	if lin[0] != 1 || lin[1] != 2 || lin[2] != 3 {
		t.Fatalf("LinearBounds=%v", lin)
	}
	for _, bad := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v accepted", bad)
				}
			}()
			NewHistogram("bad", "x", bad)
		}()
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram("lat", "ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count=%d", h.Count())
	}
	if h.Quantile(0) != 0.5 || h.Max() != 500 {
		t.Fatalf("min=%v Max=%v", h.Quantile(0), h.Max())
	}
	bounds, counts, sum := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 || sum != 556.5 {
		t.Fatalf("buckets: %v %v sum %v", bounds, counts, sum)
	}
	// 0.5 and 1 land in le=1; 5 in le=10; 50 in le=100; 500 overflows.
	wantCounts := []int64{2, 1, 1, 1}
	for i, c := range counts {
		if c != wantCounts[i] {
			t.Fatalf("counts=%v want %v", counts, wantCounts)
		}
	}
	h.ObserveDuration(20 * time.Millisecond)
	if h.Count() != 6 {
		t.Fatal("ObserveDuration did not record")
	}
	_, counts, _ = h.Buckets()
	if counts[2] != 2 {
		t.Fatalf("20ms should land in le=100: %v", counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("q", "x", []float64{10, 20, 30, 40, 50})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i % 50))
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0=%v, want the smallest observation 0", q)
	}
	if q := h.Quantile(1); q != h.Max() {
		t.Fatalf("q1=%v max=%v", q, h.Max())
	}
	med := h.Quantile(0.5)
	if med < 10 || med > 40 {
		t.Fatalf("median=%v out of plausible range", med)
	}
	if p90 := h.Quantile(0.9); p90 < med {
		t.Fatalf("p90=%v below median %v", p90, med)
	}
	// Deterministic: same buckets, same estimate.
	if h.Quantile(0.5) != med {
		t.Fatal("quantile not deterministic")
	}
}

func TestHistogramJSONDeterministic(t *testing.T) {
	build := func() *Histogram {
		h := NewHistogram("j", "ms", ExpBounds(1, 2, 8))
		for i := 0; i < 200; i++ { // top bound is 128, so 129..199 overflow
			h.Observe(float64(i))
		}
		return h
	}
	a := string(build().AppendJSON(nil))
	if b := string(build().AppendJSON(nil)); a != b {
		t.Fatalf("identical histograms encoded differently:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, `"name":"j"`) || !strings.Contains(a, `"le":"inf"`) {
		t.Fatalf("encoding: %s", a)
	}
}

func TestMetricsTableAndJSON(t *testing.T) {
	m := NewMetrics()
	m.SetupLatency.ObserveDuration(40 * time.Millisecond)
	m.ProbeHops.Observe(3)
	tbl := m.Table("metrics").String()
	if !strings.Contains(tbl, "setup_latency_ms") || !strings.Contains(tbl, "probe_hops") {
		t.Fatalf("table:\n%s", tbl)
	}
	if strings.Contains(tbl, "dht_lookup_ms") {
		t.Fatalf("empty histograms should be omitted:\n%s", tbl)
	}
}
