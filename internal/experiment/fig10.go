package experiment

import (
	"fmt"
	"time"

	"repro/internal/fgraph"
	"repro/internal/livenet"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// Fig10Config parameterizes the wide-area session-setup-time experiment,
// which runs on the live goroutine runtime (the PlanetLab stand-in) rather
// than the discrete-event simulator.
type Fig10Config struct {
	Seed  int64
	Hosts int // 102 in the paper
	// Speedup compresses wide-area latencies and protocol timers; reported
	// times are scaled back to protocol time. 1 = real time.
	Speedup float64
	// RequestsPerSize is how many compositions are averaged per function
	// count (the paper uses 500+ across all sizes).
	RequestsPerSize int
	// MinFuncs/MaxFuncs bound the x axis (2..6 in the paper).
	MinFuncs, MaxFuncs int
	// Budget is the probing budget per request.
	Budget int
	// Loss, when positive, injects uniform message loss on the live wire
	// and switches on BCP's per-hop probe retransmits.
	Loss float64
}

// DefaultFig10Config returns a configuration that finishes in a few wall
// seconds by compressing time 50x.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Seed:            1,
		Hosts:           102,
		Speedup:         50,
		RequestsPerSize: 12,
		MinFuncs:        2,
		MaxFuncs:        6,
		Budget:          20,
	}
}

// PaperFig10Config runs 102 hosts in real time with 100 requests per size
// (≥500 total, like the paper).
func PaperFig10Config() Fig10Config {
	c := DefaultFig10Config()
	c.Speedup = 1
	c.RequestsPerSize = 100
	return c
}

// Fig10Point is one x-position of Figure 10: the average session setup time
// and its breakdown for requests with Funcs functions.
type Fig10Point struct {
	Funcs       int
	Discovery   time.Duration // decentralized service discovery
	Composition time.Duration // probing + selection + reverse-path init
	Total       time.Duration
	Succeeded   int
	Attempted   int
}

// Fig10Result is the full figure.
type Fig10Result struct {
	Points []Fig10Point
	Table  *metrics.Table
}

// Fig10 reproduces Figure 10: average service session setup time in the
// wide-area live runtime versus the number of composed functions. Requests
// draw distinct functions from the six-function media catalogue deployed
// one-component-per-host, exactly like the paper's prototype (§6.2).
func Fig10(cfg Fig10Config) Fig10Result {
	tb := livenet.NewTestbed(livenet.TestbedOptions{
		Hosts:   cfg.Hosts,
		Seed:    cfg.Seed,
		Speedup: cfg.Speedup,
		Loss:    cfg.Loss,
	})
	defer tb.Close()

	rng := newRng(cfg.Seed + 500)
	var res qos.Resources
	res[qos.CPU] = 1
	res[qos.Memory] = 10
	nextID := uint64(0)

	var out Fig10Result
	for nf := cfg.MinFuncs; nf <= cfg.MaxFuncs; nf++ {
		var disc, comp, total metrics.Sample
		succeeded, attempted := 0, 0
		for r := 0; r < cfg.RequestsPerSize; r++ {
			fns := pickMediaFunctions(tb, nf, rng)
			if fns == nil {
				continue
			}
			src := p2p.NodeID(rng.Intn(cfg.Hosts))
			dst := p2p.NodeID(rng.Intn(cfg.Hosts))
			for dst == src {
				dst = p2p.NodeID(rng.Intn(cfg.Hosts))
			}
			q := qos.Unbounded()
			q[qos.Delay] = 20000
			nextID++
			req := &service.Request{
				ID: nextID, FGraph: fgraph.Linear(fns...), QoSReq: q, Res: res,
				Bandwidth: 50, Source: src, Dest: dst, Budget: cfg.Budget,
			}
			attempted++
			result := tb.Compose(req)
			if !result.Ok {
				continue
			}
			succeeded++
			d := tb.Net.Unscale(result.DiscoveryTime)
			t := tb.Net.Unscale(result.SetupTime)
			disc.AddDuration(d)
			comp.AddDuration(t - d)
			total.AddDuration(t)
			// Free the session so later requests see an idle testbed.
			tb.Net.Exec(src, func() {
				tb.Peers[int(src)].Engine.Teardown(result.Best)
			})
		}
		out.Points = append(out.Points, Fig10Point{
			Funcs:       nf,
			Discovery:   msToDur(disc.Mean()),
			Composition: msToDur(comp.Mean()),
			Total:       msToDur(total.Mean()),
			Succeeded:   succeeded,
			Attempted:   attempted,
		})
	}
	t := metrics.NewTable("Figure 10: average session setup time in wide-area live runtime",
		"functions", "discovery", "composition+init", "total", "succeeded/attempted")
	for _, p := range out.Points {
		t.AddRow(p.Funcs, p.Discovery, p.Composition, p.Total,
			fmt.Sprintf("%d/%d", p.Succeeded, p.Attempted))
	}
	out.Table = t
	return out
}

// pickMediaFunctions draws nf distinct functions that actually have
// replicas on the testbed; nil if impossible.
func pickMediaFunctions(tb *livenet.Testbed, nf int, rng interface{ Perm(int) []int }) []string {
	var avail []string
	for _, f := range media.Functions() {
		if tb.Replicas(f) > 0 {
			avail = append(avail, f)
		}
	}
	if len(avail) < nf {
		return nil
	}
	idx := rng.Perm(len(avail))[:nf]
	out := make([]string, nf)
	for i, j := range idx {
		out[i] = avail[j]
	}
	return out
}

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
