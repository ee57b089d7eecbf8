package recovery

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/p2p"
	"repro/internal/qos"
)

// TestPayloadsCrossGob: every recovery payload must survive the shape the
// real transports put on the wire — a concrete header with an `any` payload,
// which is what forces registration. rec.ping/rec.pingack were not
// registered, so localization could not cross tcpnet. A switchover's commit
// is BCP's ack, which bcp's own TestPayloadsCrossGob round-trips.
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
	// A walk travels as one *walkMsg; halfway along, the slots of the stops
	// still ahead are zero and must arrive, so the next stop has its own.
	walk := &walkMsg{
		SessID: 9, Origin: 4,
		Stops: []stop{
			{Peer: 5, Comps: []string{"p5/a.0", "p5/c.1"}},
			{Peer: 6, Comps: []string{"p6/b.0"}},
			{Peer: 8, Comps: []string{"p8/b.2"}},
		},
		Avail:   []qos.Resources{avail, {}, {}},
		Missing: []string{"p5/c.1"},
	}
	ping := pingMsg{ID: 3, Origin: 4}
	for _, want := range []any{walk, ping} {
		if got := roundTrip(want); !reflect.DeepEqual(got, want) {
			t.Errorf("%T mangled:\n got %+v\nwant %+v", want, got, want)
		}
	}
}
