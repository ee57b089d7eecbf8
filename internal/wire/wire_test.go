package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/bcp"
	"repro/internal/dht"
	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// envelope mirrors the transports' on-the-wire shape: a concrete header
// carrying an `any` payload, which is exactly what forces gob type
// registration.
type envelope struct {
	From, To p2p.NodeID
	Payload  any
}

func roundTrip(t *testing.T, payload any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{From: 1, To: 2, Payload: payload}); err != nil {
		t.Fatalf("encode %T: %v", payload, err)
	}
	var out envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode %T: %v", payload, err)
	}
	return out.Payload
}

func TestRegisterAllRoundTrip(t *testing.T) {
	RegisterAll()
	RegisterAll() // idempotent

	// DHT routing message with a nested service.Component payload — the
	// combination the discovery layer actually puts on the wire.
	comp := service.Component{ID: "p3/scale.0", Function: "scale", Peer: 3}
	rm := dht.RouteMsg{
		Key:  dht.Key("scale"),
		Hops: 2,
		Put:  &dht.PutPayload{Item: comp, Size: 64},
	}
	got, ok := roundTrip(t, rm).(dht.RouteMsg)
	if !ok {
		t.Fatalf("RouteMsg decoded as %T", roundTrip(t, rm))
	}
	if got.Key != rm.Key || got.Hops != 2 || got.Put == nil {
		t.Fatalf("RouteMsg mangled: %+v", got)
	}
	if c, ok := got.Put.Item.(service.Component); !ok || c.ID != comp.ID || c.Peer != comp.Peer {
		t.Fatalf("nested Component mangled: %#v", got.Put.Item)
	}

	// A lookup's payload rides in the envelope by value; a put's envelope
	// must still read as "not a get" on the far side.
	if got.Get.ReqID != 0 {
		t.Fatalf("put decoded with a get payload: %+v", got.Get)
	}
	lookup := dht.RouteMsg{Key: dht.Key("scale"), Hops: 1, Span: 9, Get: dht.GetPayload{ReqID: 5, Origin: 4}}
	if got, ok := roundTrip(t, lookup).(dht.RouteMsg); !ok || got != lookup {
		t.Fatalf("get RouteMsg mangled: %#v", got)
	}

	// GetResp carries []any of registered concrete types.
	resp := dht.GetResp{ReqID: 7, Items: []any{comp}, Hops: 4}
	gr, ok := roundTrip(t, resp).(dht.GetResp)
	if !ok || gr.ReqID != 7 || len(gr.Items) != 1 {
		t.Fatalf("GetResp mangled: %#v", gr)
	}
}

// TestProbeRoundTrip: a probe's branch record — each hop with the service
// link it arrived over, and the leaf's egress link — is what selection
// rebuilds service graphs from at the destination, so all of it must cross
// the wire.
func TestProbeRoundTrip(t *testing.T) {
	RegisterAll()
	fg := fgraph.Linear("x", "y")
	req := &service.Request{ID: 7, FGraph: fg, Budget: 3, Source: 0, Dest: 1, Bandwidth: 64}
	hop := func(fn int, id string) bcp.Hop {
		return bcp.Hop{
			Fn:   fn,
			Snap: service.Snapshot{Comp: service.Component{ID: id, Function: fg.Function(fn), Peer: p2p.NodeID(fn + 2)}, Util: 0.25},
			In:   service.LinkSnapshot{FromFn: fn - 1, ToFn: fn, BandAvail: 900 - float64(fn), Latency: 12.5},
		}
	}
	probe := bcp.Probe{
		ReqID: 7, Req: req, PatternIdx: 1, Pattern: fg, Budget: 3, UID: 2<<32 | 9, Credit: bcp.TotalCredit / 3,
		CurFn: 1, CurCompID: "c1",
		Visited: []bcp.Hop{hop(0, "c0"), hop(1, "c1")},
		Egress:  service.LinkSnapshot{FromFn: 1, ToFn: -1, BandAvail: 640, Latency: 3},
	}
	probe.QoS[qos.Delay] = 41.5
	got, ok := roundTrip(t, probe).(bcp.Probe)
	if !ok {
		t.Fatalf("Probe decoded as %T", roundTrip(t, probe))
	}
	if !got.Pattern.Equal(fg) || !got.Req.FGraph.Equal(fg) || got.Req.Bandwidth != 64 {
		t.Fatalf("pattern or request mangled: %+v", got)
	}
	// The graphs decode into fresh objects; everything else must be equal
	// field for field.
	got.Pattern, got.Req = probe.Pattern, probe.Req
	if !reflect.DeepEqual(got, probe) {
		t.Fatalf("probe mangled:\n got %+v\nwant %+v", got, probe)
	}
}

func TestRegisterAllBeforeEncode(t *testing.T) {
	// Without registration, gob refuses to encode an interface-typed field
	// holding an unregistered concrete type. RegisterAll ran in the sibling
	// test (package-level once), so this must succeed from a cold buffer.
	RegisterAll()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(envelope{Payload: dht.AnnounceMsg{}})
	if err != nil {
		t.Fatalf("AnnounceMsg not registered: %v", err)
	}
	if err := gob.NewEncoder(&buf).Encode(envelope{Payload: service.Component{}}); err != nil {
		t.Fatalf("service.Component not registered: %v", err)
	}
}
