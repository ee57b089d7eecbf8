package livenet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bcp"
	"repro/internal/dht"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/peer"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/topology"
)

// TestbedOptions configures a live wide-area deployment.
type TestbedOptions struct {
	Hosts   int     // default 102, the paper's PlanetLab host count
	Seed    int64   // default 1
	Speedup float64 // latency/timer compression; default 1 (real time)
	// Loss, when positive, kills each message send with this probability
	// (seeded by Seed, so a fixed-seed run injects a repeatable loss
	// pattern even though live-runtime timing is not reproducible); every
	// engine is hardened while the wire drops messages (Network.Faulty).
	Loss float64
	// Trace, when non-nil, receives structured events from every layer.
	// Live-runtime timestamps come from the wall clock, so traces are not
	// byte-reproducible the way simulator traces are.
	Trace obs.Tracer
	// Obs, when non-nil, accumulates per-node counters across all layers.
	Obs *obs.Registry
	// Metrics, when non-nil, observes the online histograms; with Obs it is
	// what the admin endpoint serves during a live run.
	Metrics *obs.Metrics
}

// Testbed is a live deployment: the PlanetLab stand-in.
type Testbed struct {
	Net   *Network
	Peers []*peer.Peer
	opts  TestbedOptions
}

// flatOracle is the live data plane: wide-area latencies, effectively
// unconstrained bandwidth (the paper's prototype did not enforce bandwidth
// admission either).
type flatOracle struct {
	lat [][]float64
}

func (o *flatOracle) Path(a, b p2p.NodeID) (float64, float64, bool) {
	return o.lat[int(a)][int(b)], 1e9, true
}
func (o *flatOracle) PathLatency(a, b p2p.NodeID) (float64, bool)       { return o.lat[int(a)][int(b)], true }
func (o *flatOracle) AllocBandwidth(a, b p2p.NodeID, kbps float64) bool { return true }
func (o *flatOracle) ReleaseBandwidth(a, b p2p.NodeID, kbps float64)    {}

// NewTestbed builds and starts a live deployment: wide-area latencies, one
// goroutine per host, a statically built DHT, and one randomly drawn media
// component per host, registered through the discovery substrate.
func NewTestbed(opts TestbedOptions) *Testbed {
	if opts.Hosts == 0 {
		opts.Hosts = 102
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Speedup == 0 {
		opts.Speedup = 1
	}
	catalog, capacity := media.Functions(), qos.Resources{qos.CPU: 20, qos.Memory: 200} // per host
	// The registry and the metrics fold events: they ride every layer's trace.
	opts.Trace = obs.Counting(opts.Trace, opts.Obs, opts.Metrics)
	rng := rand.New(rand.NewSource(opts.Seed))
	lat := topology.WideAreaLatencies(opts.Hosts, rng)
	nw := NewNetwork(lat, opts.Speedup)
	nw.SetObs(opts.Trace, opts.Obs, opts.Metrics)
	if opts.Loss > 0 {
		nw.SetLoss(opts.Loss, opts.Seed)
	}
	oracle := &flatOracle{lat: lat}

	tb := &Testbed{Net: nw, opts: opts}
	dhtNodes := make([]*dht.Node, opts.Hosts)
	for i := 0; i < opts.Hosts; i++ {
		fn := catalog[rng.Intn(len(catalog))]
		var qp qos.Vector
		qp[qos.Delay] = 5 + rng.Float64()*25
		comps := []service.Component{{
			ID:       fmt.Sprintf("p%d/%s", i, fn),
			Function: fn,
			Peer:     p2p.NodeID(i),
			Qp:       qp,
		}}
		p := peer.New(nw.AddNode(p2p.NodeID(i), opts.Seed), nw.Alive, nw.Faulty, oracle, capacity, comps,
			bcp.DefaultConfig(), opts.Trace, opts.Metrics, opts.Obs)
		tb.Peers = append(tb.Peers, p)
		dhtNodes[i] = p.DHT
	}
	// Static DHT construction happens before any traffic, so direct calls
	// are safe; registrations then flow as real messages. Routing-table slots
	// hold the wide-area-nearest member of their bucket.
	dht.BuildNear(dhtNodes, func(i, j int) float64 { return lat[i][j] })
	for i, p := range tb.Peers {
		p := p
		nw.Exec(p2p.NodeID(i), func() {
			for _, c := range p.Components {
				p.Registry.Register(c)
			}
		})
	}
	tb.Settle(2 * time.Second)
	return tb
}

// Settle sleeps for d of protocol time (compressed by the speedup), letting
// in-flight traffic drain.
func (tb *Testbed) Settle(d time.Duration) {
	time.Sleep(tb.Net.Scale(d))
}

// Compose runs one composition from req.Source and blocks until the result
// arrives (in wall time; the Result's durations are wall-clock too — apply
// Net.Unscale for protocol time).
func (tb *Testbed) Compose(req *service.Request) bcp.Result {
	ch := make(chan bcp.Result, 1)
	tb.Net.Exec(req.Source, func() {
		tb.Peers[int(req.Source)].Engine.Compose(req, func(r bcp.Result) {
			ch <- r
		})
	})
	return <-ch
}

// Close stops all host goroutines.
func (tb *Testbed) Close() { tb.Net.Close() }

// Replicas counts live components providing fn.
func (tb *Testbed) Replicas(fn string) int {
	n := 0
	for _, p := range tb.Peers {
		for _, c := range p.Components {
			if c.Function == fn {
				n++
			}
		}
	}
	return n
}
