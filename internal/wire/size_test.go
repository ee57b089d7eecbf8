package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/dht"
	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/service"
)

// duplicates is a 20-item duplicate list of function fn7 shaped as a cluster
// draws it: IDs "p<peer>/fn7.<k>", a random service delay, loss and failure
// probability, one CPU unit and ten memory units each.
func duplicates() []*service.Component {
	rng := rand.New(rand.NewSource(1))
	comps := make([]*service.Component, 20)
	for i := range comps {
		peer := 10 + rng.Intn(290)
		c := service.Component{ID: fmt.Sprintf("p%d/fn7.%d", peer, i%2), Function: "fn7",
			Peer: p2p.NodeID(peer), FailProb: rng.Float64() * 0.05}
		c.Qp[qos.Delay] = 5 + rng.Float64()*45
		c.Qp[qos.Loss] = qos.LossToAdditive(rng.Float64() * 0.01)
		c.Res[qos.CPU], c.Res[qos.Memory] = 1, 10
		comps[i] = &c
	}
	return comps
}

// TestModelledSizesMatchTheEncoding holds the byte model the simulator charges
// to the encoding tcpnet ships: one gob stream per connection, so a type is
// described once and every later message carries values only. Each row
// encodes a message with and without what it prices, both after a first
// message of the same shape, and divides the difference by the units priced.
// A model more than 2× off the encoding either way fails; -v prints each.
func TestModelledSizesMatchTheEncoding(t *testing.T) {
	RegisterAll()
	comps := duplicates()
	items := make([]any, len(comps))
	for i, c := range comps {
		items[i] = c
	}
	fg := fgraph.Linear("fn3", "fn7", "fn1")
	req := &service.Request{ID: 4242, FGraph: fg, QoSReq: qos.Unbounded(), Source: 17, Dest: 211, Budget: 24, Bandwidth: 100}
	req.Res[qos.CPU], req.Res[qos.Memory] = 1, 10
	probe := func(lists ...bcp.List) *bcp.Probe {
		return &bcp.Probe{ReqID: req.ID, Req: req, Pattern: fg, Budget: 12, UID: 17<<32 | 93, Credit: bcp.TotalCredit / 2,
			CurFn: 0, CurCompID: "p42/fn3.0", Hints: []bcp.Hint{{Fn: 1, Root: 133}, {Fn: 2, Root: 87}}, Lists: lists}
	}
	list := func(base int, comps []*service.Component) bcp.List {
		return bcp.List{Fn: "fn7", Listing: registry.Listing{Comps: comps, Root: 133, Held: 20},
			Expires: 41*time.Second + 250*time.Millisecond, Base: base}
	}
	whole, tail, bare := probe(list(0, comps)), probe(list(20, nil)), probe()

	for _, row := range []struct {
		name          string
		with, without any
		units         int
		model         int
	}{
		{"dht.get.resp item (dht.ItemSize)", dht.GetResp{ReqID: 31, Items: items, Hops: 2},
			dht.GetResp{ReqID: 31, Base: 20, Hops: 2}, len(items), dht.ItemSize},
		{"bcp.probe list item (dht.ItemSize)", whole, tail, len(comps), dht.ItemSize},
		{"bcp.probe list, no items (probeListSize)", tail, bare, 1, bcp.ProbeSize(*tail) - bcp.ProbeSize(*bare)},
	} {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		size := func(payload any) int {
			n := buf.Len()
			if err := enc.Encode(envelope{From: 17, To: 42, Payload: payload}); err != nil {
				t.Fatalf("%s: encode %T: %v", row.name, payload, err)
			}
			return buf.Len() - n
		}
		size(row.with)
		size(row.without)
		encoded := float64(size(row.with)-size(row.without)) / float64(row.units)
		t.Logf("%-42s modelled %3d B, encoded %5.1f B", row.name, row.model, encoded)
		if r := float64(row.model) / encoded; r > 2 || r < 0.5 {
			t.Errorf("%s: modelled %d B is %.2f× the %.1f B encoded", row.name, row.model, r, encoded)
		}
	}
}
