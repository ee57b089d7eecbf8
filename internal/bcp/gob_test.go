package bcp

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/service"
)

// TestPayloadsCrossGob: what discovery along the probe path puts on the wire
// must survive the shape the real transports send — a concrete header with an
// `any` payload: a probe with its walked branch, its hints and the lists the
// source hands its first hop; a routed get that names the peer and the number
// of items its sender holds; and the response that leaves those items out.
func TestPayloadsCrossGob(t *testing.T) {
	RegisterGob()
	dht.RegisterGob()
	type envelope struct {
		From, To p2p.NodeID
		Payload  any
	}
	roundTrip := func(payload any) any {
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

	get := dht.RouteMsg{Key: dht.Key("fn:b"), Hops: 1, Span: 9,
		Get: dht.GetPayload{ReqID: 3, Origin: 4, Root: 7, Held: 2}}
	b2 := service.Component{ID: "p6/b.2", Function: "b", Peer: 6, InFormat: 1}
	resp := dht.GetResp{ReqID: 3, Items: []any{b2}, Base: 2, Hops: 1}
	for _, want := range []any{get, resp} {
		if got := roundTrip(want); !reflect.DeepEqual(got, want) {
			t.Errorf("%T mangled:\n got %+v\nwant %+v", want, got, want)
		}
	}

	// The probe's pattern and request decode into fresh objects; everything
	// else must be equal field for field.
	fg := fgraph.Linear("a", "b", "c")
	req := &service.Request{ID: 9, FGraph: fg, Source: 4, Dest: 1, Bandwidth: 64, Budget: 12}
	var avail qos.Resources
	avail[qos.CPU] = 7
	probe := Probe{
		ReqID: 9, Req: req, Pattern: fg, Budget: 3, UID: 4<<32 | 17, Credit: TotalCredit / 4,
		CurFn: 1, CurCompID: "p6/b.0",
		Visited: []Hop{{
			Fn:   0,
			Snap: service.Snapshot{Comp: service.Component{ID: "p5/a.0", Function: "a", Peer: 5}, Avail: avail, Util: 0.25},
			In:   service.LinkSnapshot{FromFn: -1, ToFn: 0, BandAvail: 900, Latency: 12},
		}},
		Hints: []Hint{{Fn: 2, Root: 8}},
		Lists: []List{{
			Fn:      "c",
			Listing: registry.Listing{Comps: []service.Component{{ID: "p8/c.0", Function: "c", Peer: 8}, b2}, Root: 8, Held: 3},
			Expires: 31 * time.Second,
		}},
	}
	got, ok := roundTrip(probe).(Probe)
	if !ok || !got.Pattern.Equal(fg) || !got.Req.FGraph.Equal(fg) || got.Req.Budget != 12 {
		t.Fatalf("probe pattern or request mangled: %+v", got)
	}
	got.Pattern, got.Req = fg, req
	if !reflect.DeepEqual(got, probe) {
		t.Errorf("probe mangled:\n got %+v\nwant %+v", got, probe)
	}
}
