package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	r.Add(true)
	r.Add(true)
	r.Add(false)
	r.Add(true)
	if math.Abs(r.Value()-0.75) > 1e-12 {
		t.Fatalf("Value=%v", r.Value())
	}
	if r.Total != 4 || r.Success != 3 {
		t.Fatalf("counts=%+v", r)
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.N() != 0 {
		t.Fatal("empty sample stats wrong")
	}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean=%v", s.Mean())
	}
	if s.Max() != 5 {
		t.Fatalf("Max=%v", s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("P50=%v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("P100=%v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0=%v", got)
	}
}

// TestSamplePercentileCacheInvalidation guards the sorted-slice cache: an
// Add between Percentile calls must invalidate it, and repeated calls on an
// unchanged sample must not disturb the insertion order visible via Add.
func TestSamplePercentileCacheInvalidation(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("P100=%v", got)
	}
	// A later, larger observation must be seen despite the cached sort.
	s.Add(9)
	if got := s.Percentile(100); got != 9 {
		t.Fatalf("P100 after Add=%v want 9", got)
	}
	// A later, smaller observation shifts the low percentiles too.
	s.Add(0)
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("P0 after Add=%v want 0", got)
	}
	// Repeated percentile queries (the p50/p90/p99 reporting burst) agree
	// with each other without re-sorting.
	if s.Percentile(50) != s.Percentile(50) {
		t.Fatal("cached percentile unstable")
	}
}

func TestSampleAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1500 {
		t.Fatalf("Mean=%v ms", s.Mean())
	}
}

func TestTimeline(t *testing.T) {
	tl := NewTimeline(time.Minute)
	tl.Add(30 * time.Second)  // bucket 0
	tl.Add(90 * time.Second)  // bucket 1
	tl.Add(100 * time.Second) // bucket 1
	tl.Add(5 * time.Minute)   // bucket 5
	counts := tl.Counts(10 * time.Minute)
	if len(counts) != 10 {
		t.Fatalf("len=%d", len(counts))
	}
	want := []int{1, 2, 0, 0, 0, 1, 0, 0, 0, 0}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
}

func TestTimelineBadBucketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimeline(0)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "workload", "optimal", "probing")
	tb.AddRow(50, 0.95, 0.93)
	tb.AddRow(250, 0.52123, 0.5)
	out := tb.String()
	if !strings.Contains(out, "# Figure X") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines=%d", len(lines))
	}
	if !strings.Contains(lines[1], "workload") || !strings.Contains(lines[1], "probing") {
		t.Fatalf("header=%q", lines[1])
	}
	if !strings.Contains(out, "0.521") {
		t.Fatal("float not formatted to 3 decimals")
	}
	// Duration cells render in milliseconds.
	tb2 := NewTable("", "t")
	tb2.AddRow(1500 * time.Millisecond)
	if !strings.Contains(tb2.String(), "1500.0ms") {
		t.Fatalf("duration cell: %q", tb2.String())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow(1, "has,comma")
	csv := tb.CSV()
	want := "a,b\n1,\"has,comma\"\n"
	if csv != want {
		t.Fatalf("CSV=%q want %q", csv, want)
	}
}
