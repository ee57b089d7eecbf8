package recovery

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// TestPayloadsCrossGob: every recovery payload must survive the shape the
// real transports put on the wire — a concrete header with an `any` payload,
// which is what forces registration. rec.ping/rec.pingack were not
// registered, so localization could not cross tcpnet.
func TestPayloadsCrossGob(t *testing.T) {
	RegisterGob()
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

	var avail qos.Resources
	avail[qos.CPU], avail[qos.Memory] = 7, 70
	walk := walkMsg{
		SessID: 9, Origin: 4, Pos: 2,
		Stops: []stop{
			{Peer: 5, Comps: []string{"p5/a.0", "p5/c.1"}},
			{Peer: 6, Comps: []string{"p6/b.0"}},
			{Peer: 8, Comps: []string{"p8/b.2"}},
		},
		Avail:   []qos.Resources{avail, {}},
		Missing: []string{"p5/c.1"},
	}
	ping := pingMsg{ID: 3, Origin: 4}
	reply := setupReply{SetupID: 11, OK: true}
	for _, want := range []any{walk, ping, reply} {
		if got := roundTrip(want); !reflect.DeepEqual(got, want) {
			t.Errorf("%T mangled:\n got %+v\nwant %+v", want, got, want)
		}
	}

	// The setup carries a whole graph; its pattern and request decode into
	// fresh objects, everything else must be equal field for field.
	fg := fgraph.Linear("a", "b")
	req := &service.Request{ID: 9, FGraph: fg, Source: 4, Dest: 1, Bandwidth: 64}
	g := &service.Graph{Pattern: fg, Req: req, Comps: map[int]service.Snapshot{
		0: {Comp: service.Component{ID: "p5/a.0", Function: "a", Peer: 5}, Avail: avail},
		1: {Comp: service.Component{ID: "p6/b.0", Function: "b", Peer: 6}},
	}}
	setup := setupMsg{SetupID: 11, Graph: g, Order: []int{1, 0}, Pos: 1, Origin: 4}
	got, ok := roundTrip(setup).(setupMsg)
	if !ok || !got.Graph.Pattern.Equal(fg) || !got.Graph.Req.FGraph.Equal(fg) || got.Graph.Req.Bandwidth != 64 {
		t.Fatalf("setupMsg pattern or request mangled: %+v", got)
	}
	got.Graph.Pattern, got.Graph.Req = fg, req
	if !reflect.DeepEqual(got, setup) {
		t.Errorf("setupMsg mangled:\n got %+v\nwant %+v", got, setup)
	}
}
