package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/p2p"
)

func sampleEvents() []Event {
	return []Event{
		ComposeStart(0, 3, 42, 3, 20),
		ProbeSent(time.Millisecond, 3, 42, 7, "fn1", "p7/fn1.0", 10, 0, 101, 0),
		ProbeSent(2*time.Millisecond, 7, 42, 9, "fn2", "p9/fn2.1", 5, 1, 102, 101),
		ProbeDropped(3*time.Millisecond, 9, 42, "fn2", "p9/fn2.1", "qos", 2, 102),
		ProbeReturned(4*time.Millisecond, 9, 42, 1, 2, 256, 103),
		ProbeCollected(5*time.Millisecond, 1, 42, 9, 2, 103),
		SelectDone(6*time.Millisecond, 1, 42, 4, 2, 0),
		SessionAdmit(7*time.Millisecond, 9, 42, "p9/fn2.1"),
		ComposeDone(8*time.Millisecond, 3, 42, true, 8*time.Millisecond),
		DHTHop(9*time.Millisecond, 2, 5, 42, 1, "get"),
		DHTDeliver(10*time.Millisecond, 5, 42, 2, "get"),
		FedPrepare(10500*time.Microsecond, 5, 42, uint64(1)<<62|42<<4, 1),
		NetDrop(11*time.Millisecond, 3, 8, "bcp.probe", 128, 102),
		RecOutcome(12*time.Millisecond, 3, 42, KindRecSwitchover, 300*time.Millisecond),
		{TS: 13 * time.Millisecond, Kind: "weird", Node: 0, Peer: p2p.NoNode,
			Note: `needs "escaping" \ and ünïcode`},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	evs := sampleEvents()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, ev := range evs {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != int64(len(evs)) {
		t.Fatalf("Count=%d want %d", sink.Count(), len(evs))
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("read %d events, wrote %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d changed in round trip:\n  wrote %+v\n  read  %+v", i, evs[i], got[i])
		}
	}
}

func TestJSONLDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		for _, ev := range sampleEvents() {
			sink.Emit(ev)
		}
		sink.Flush()
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("identical event streams rendered differently")
	}
	if strings.Count(a, "\n") != len(sampleEvents()) {
		t.Fatalf("expected one line per event:\n%s", a)
	}
}

func TestJSONLOmitsZeroFields(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit(Event{TS: time.Second, Kind: KindDHTDeliver, Node: 4, Peer: p2p.NoNode})
	sink.Flush()
	line := strings.TrimSpace(buf.String())
	want := `{"ts":1000000000,"kind":"dht.deliver","node":4}`
	if line != want {
		t.Fatalf("line=%s want %s", line, want)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"ts\":1}\nnot json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

func TestMemSinkAndMultiTracer(t *testing.T) {
	var a, b MemSink
	multi := MultiTracer{&a, &b}
	for _, ev := range sampleEvents() {
		multi.Emit(ev)
	}
	if a.Len() != len(sampleEvents()) || b.Len() != a.Len() {
		t.Fatalf("fan-out lost events: %d / %d", a.Len(), b.Len())
	}
	evs := a.Events()
	evs[0].Kind = "mutated"
	if a.Events()[0].Kind == "mutated" {
		t.Fatal("Events() must return a copy")
	}
}

func TestRegistryRollup(t *testing.T) {
	r := NewRegistry()
	c3 := r.Node(3)
	c3.MsgsSent.Store(10)
	c3.BytesSent.Store(1000)
	c3.ProbesSent.Store(4)
	c5 := r.Node(5)
	c5.MsgsSent.Store(7)
	c5.DHTHops.Store(2)
	if r.Node(3) != c3 {
		t.Fatal("Node must return a stable pointer")
	}
	tot := r.Totals()
	if tot.MsgsSent != 17 || tot.BytesSent != 1000 || tot.ProbesSent != 4 || tot.DHTHops != 2 {
		t.Fatalf("totals=%+v", tot)
	}
	tbl := r.Table("t").String()
	if !strings.Contains(tbl, "messages sent") || !strings.Contains(tbl, "17") {
		t.Fatalf("rollup table missing totals:\n%s", tbl)
	}
	per := r.PerNodeTable("p", 1).String()
	if !strings.Contains(per, "3") || strings.Contains(per, "\n5") {
		t.Fatalf("per-node table should keep only the busiest node:\n%s", per)
	}
}

// TestRegistryMerge fills every counter of one node by reflection, so a
// counter added to NodeCounters but forgotten in Merge fails here.
func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Node(1).MsgsSent.Store(100)
	a.Node(2).MsgsSent.Store(5)
	src := reflect.ValueOf(b.Node(1)).Elem()
	for i := 0; i < src.NumField(); i++ {
		src.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	want := a.Totals()
	want.Add(b.Totals())
	a.Merge(b)
	if got := a.Totals(); got != want {
		t.Fatalf("totals after merge %+v, want %+v", got, want)
	}
	got := reflect.ValueOf(a.Node(1).Snapshot())
	for i := 0; i < got.NumField(); i++ {
		want := int64(i + 1)
		if got.Type().Field(i).Name == "MsgsSent" {
			want += 100
		}
		if got.Field(i).Int() != want {
			t.Errorf("node 1 %s = %d after merge, want %d", got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
	if a.NumNodes() != 2 || b.Node(1).MsgsSent.Load() != 1 {
		t.Error("merge must add nodes to the receiver only and leave its argument alone")
	}
}

// BenchmarkJSONLEmit guards the allocation-conscious claim: steady-state
// emission into a JSONL sink should not allocate.
func BenchmarkJSONLEmit(b *testing.B) {
	sink := NewJSONLSink(discard{})
	ev := ProbeSent(time.Millisecond, 3, 42, 7, "fn1", "p7/fn1.0", 10, 2, 12345, 12344)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Emit(ev)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
