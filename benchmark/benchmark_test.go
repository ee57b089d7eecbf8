package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesCode: the check every run makes passes on the
// BENCHMARK.json that is committed.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	if err := checkContract(benchmarkJSONPath); err != nil {
		t.Error(err)
	}
}

func names(ms []metricDef) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shrunk is the test-sized version of a cell: a tenth of the world and a
// fiftieth of the requests, with the arrival rate and lifetimes kept.
func (c cell) shrunk() cell {
	c.IPNodes /= 10
	c.Peers /= 10
	c.Requests /= 50
	c.Window /= 50
	c.FlashAt /= 50
	c.FlashDur /= 50
	c.Gets /= 50
	c.Routes /= 50
	// The run still lasts Tail, so a faster, deeper churn keeps failures in it.
	c.ChurnEvery /= 3
	c.ChurnDown /= 3
	c.ChurnFrac *= 5
	return c
}

// TestShrunkWorkloads runs every workload at test size, untraced and traced,
// through the same gate the real runs pass: nothing hung, no orphaned
// reservation, no trace-invariant violation, traced and untraced rounds
// identical on the virtual clock — and checks that a run prints exactly the
// metric names BENCHMARK.json lists.
func TestShrunkWorkloads(t *testing.T) {
	for _, c := range cells {
		small := c.shrunk()
		for _, traced := range []bool{false, true} {
			res, det, err := runOne(small, 1, nominalRoundS, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", c.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%q",
					c.Name, traced, res.Correct, res.Attempted, res.Failed, det.Problems)
			}
			want := names(endToEnd)
			if traced {
				want = names(perLayer)
			}
			if got := keys(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: printed metrics %v, want %v", c.Name, traced, got, want)
			}
			for name, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s %s = %v", c.Name, name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s %s = %v: end-to-end metrics must never be 0", c.Name, name, v.Value)
				}
			}
			if det.Manifest.GoVersion == "" || det.Manifest.SpecHash == "" || det.VirtualDigest == "" {
				t.Errorf("%s: manifest or digest missing: %+v", c.Name, det.Manifest)
			}
		}
	}
}

// TestSameSeedSameDigest: the virtual clock repeats exactly for a seed and
// moves with it.
func TestSameSeedSameDigest(t *testing.T) {
	c := cells[0].shrunk()
	a, err := runCell(c, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := runCell(c, 7, false)
	other, _ := runCell(c, 8, false)
	if a.Digest != b.Digest {
		t.Errorf("seed 7 twice: digests %s and %s", a.Digest, b.Digest)
	}
	if a.Digest == other.Digest {
		t.Errorf("seeds 7 and 8 share digest %s", a.Digest)
	}
}

func TestAttribute(t *testing.T) {
	samples := []stackSample{
		// Runtime work under a layer's frame belongs to the layer.
		{Frames: []string{"runtime.mallocgc", "repro/internal/bcp.(*Engine).onProbe", "repro/internal/simnet.(*Sim).Step", "main.runComposition"}, Value: 40},
		// The deepest internal frame wins over its callers.
		{Frames: []string{"container/heap.Pop", "repro/internal/topology.(*Overlay).dijkstra", "repro/internal/cluster.(*overlayOracle).Path", "repro/internal/bcp.(*Engine).spawnNext"}, Value: 30},
		// Subpackages count towards their parent layer.
		{Frames: []string{"repro/internal/obs/span.(*Builder).Add", "main.runComposition"}, Value: 10},
		// GC, both as background worker and as an assist inside a layer.
		{Frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, Value: 8},
		{Frames: []string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/dht.(*Node).deliver"}, Value: 2},
		{Frames: []string{"runtime.schedule", "runtime.mcall"}, Value: 10},
	}
	got := attribute(samples)
	want := map[string]float64{"bcp": 0.4, "topology": 0.3, "obs": 0.1, "runtime.gc": 0.1, "other": 0.1}
	sum := 0.0
	for layer, share := range got {
		sum += share
		if math.Abs(share-want[layer]) > 1e-12 {
			t.Errorf("%s: share %v, want %v", layer, share, want[layer])
		}
	}
	if len(got) != len(want) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v sum to %v, want %v summing to 1", got, sum, want)
	}
	if len(attribute(nil)) != 0 {
		t.Error("no samples must give no shares")
	}
}

// pb is a minimal protobuf writer for the synthetic profile below.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) bytesField(field int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.bytesField(field, b)
}

func TestDecodeProfile(t *testing.T) {
	strs := []string{"", "samples", "cpu", "leaf", "inlinedCaller", "root"}
	var prof pb
	for fn := uint64(1); fn <= 3; fn++ { // function id n is named strs[n+2]
		var f pb
		f.varint(1, fn)
		f.varint(2, fn+2)
		prof.bytesField(5, f.Bytes())
	}
	line := func(fn uint64) []byte {
		var l pb
		l.varint(1, fn)
		l.varint(2, 42)
		return l.Bytes()
	}
	var loc1, loc2 pb
	loc1.varint(1, 1) // location 1: leaf inlined into inlinedCaller
	loc1.bytesField(4, line(1))
	loc1.bytesField(4, line(2))
	loc2.varint(1, 2) // location 2: root
	loc2.bytesField(4, line(3))
	prof.bytesField(4, loc1.Bytes())
	prof.bytesField(4, loc2.Bytes())
	var s1, s2 pb
	s1.packed(1, 1, 2) // packed ids and values, as runtime/pprof writes them
	s1.packed(2, 3, 30000000)
	s2.varint(1, 2) // unpacked, which the format also allows
	s2.varint(2, 1)
	s2.varint(2, 10000000)
	prof.bytesField(2, s1.Bytes())
	prof.bytesField(2, s2.Bytes())
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	got, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{Frames: []string{"leaf", "inlinedCaller", "root"}, Value: 30000000},
		{Frames: []string{"root"}, Value: 10000000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	if _, err := decodeProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile must not decode")
	}
}

// TestSpreadOf holds the quartiles to Python's statistics.quantiles(n=4),
// which is what the driver computes spreads with.
func TestSpreadOf(t *testing.T) {
	got := spreadOf([]float64{10, 1, 4, 2, 3})
	want := spread{Median: 3, Q1: 1.5, Q3: 7, N: 5}
	if got != want {
		t.Errorf("spreadOf = %+v, want %+v", got, want)
	}
	if one := spreadOf([]float64{5}); one != (spread{5, 5, 5, 1}) {
		t.Errorf("single value: %+v", one)
	}
}
