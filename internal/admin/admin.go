// Package admin serves the live observability plane over HTTP: a hand-rolled
// Prometheus text exposition of the obs counters and histograms, a JSON
// snapshot, Go pprof profiling, and a health probe. It uses only the standard
// library — the exposition format is simple enough that pulling in a client
// library would cost more than writing the ~100 lines by hand.
//
// Endpoints:
//
//	/healthz        liveness probe ("ok")
//	/metrics        Prometheus text format (counters, histograms, gauges)
//	/snapshot       fixed-field-order JSON of the same data
//	/debug/pprof/*  standard Go profiling (heap, profile, trace, ...)
//
// The admin plane is strictly read-only: it snapshots atomic counters and
// mutex-guarded histograms while the runtime keeps moving them.
package admin

import (
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
)

// namespace prefixes every exported metric name.
const namespace = "spidernet_"

// Server is a running admin endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an admin HTTP server on addr (e.g. ":9090" or
// "127.0.0.1:0"). reg and met may each be nil; the corresponding sections
// are simply absent from the exposition.
func Serve(addr string, reg *obs.Registry, met *obs.Metrics) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           Handler(reg, met),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// Handler builds the admin mux without binding a socket, for embedding and
// tests.
func Handler(reg *obs.Registry, met *obs.Metrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(renderMetrics(reg, met))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(renderSnapshot(reg, met))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// counterSpec maps one Counters field to its exported metric.
type counterSpec struct {
	name string
	help string
	get  func(obs.Counters) int64
}

var counterSpecs = []counterSpec{
	{"msgs_sent_total", "Messages put on the wire.", func(c obs.Counters) int64 { return c.MsgsSent }},
	{"bytes_sent_total", "Approximate wire bytes sent.", func(c obs.Counters) int64 { return c.BytesSent }},
	{"msgs_recv_total", "Messages delivered.", func(c obs.Counters) int64 { return c.MsgsRecv }},
	{"msgs_dropped_total", "Messages dropped by the network.", func(c obs.Counters) int64 { return c.MsgsDrop }},
	{"probes_sent_total", "BCP probes emitted (origin + forwards).", func(c obs.Counters) int64 { return c.ProbesSent }},
	{"probes_dropped_total", "BCP probes killed by QoS/resource/link checks.", func(c obs.Counters) int64 { return c.ProbesDropped }},
	{"probes_returned_total", "BCP probes that completed and reported.", func(c obs.Counters) int64 { return c.ProbesReturned }},
	{"probe_budget_spent_total", "Probing budget carried by emitted probes.", func(c obs.Counters) int64 { return c.BudgetSpent }},
	{"probe_retransmits_total", "Per-hop probe retransmits (same PID, no budget).", func(c obs.Counters) int64 { return c.ProbesRetx }},
	{"dht_hops_total", "DHT messages forwarded.", func(c obs.Counters) int64 { return c.DHTHops }},
	{"disc_lookups_total", "Discovery lookups issued (cache misses).", func(c obs.Counters) int64 { return c.DiscLookups }},
	{"disc_cache_hits_total", "Duplicate lists served from the discovery cache.", func(c obs.Counters) int64 { return c.DiscCacheHits }},
	{"disc_hinted_total", "Discovery lookups handed straight to a hinted peer.", func(c obs.Counters) int64 { return c.DiscHinted }},
	{"disc_joined_total", "Cache misses that waited on a lookup already in flight.", func(c obs.Counters) int64 { return c.DiscJoined }},
	{"disc_carried_total", "Duplicate lists installed from a source's probe.", func(c obs.Counters) int64 { return c.DiscCarried }},
	{"disc_delta_total", "Discovery lookups answered with only the new items.", func(c obs.Counters) int64 { return c.DiscDelta }},
	{"faults_injected_total", "Injected network faults on sent messages.", func(c obs.Counters) int64 { return c.Faults }},
}

// renderMetrics writes the Prometheus text exposition format (v0.0.4):
// HELP/TYPE headers, counter totals plus per-node breakdowns, histograms
// with cumulative le buckets and _sum/_count, and gauges.
func renderMetrics(reg *obs.Registry, met *obs.Metrics) []byte {
	b := make([]byte, 0, 4096)
	if reg != nil {
		nodes := reg.Snapshot()
		var tot obs.Counters
		for _, n := range nodes {
			tot.Add(n.Counters)
		}
		for _, spec := range counterSpecs {
			b = append(b, "# HELP "...)
			b = append(b, namespace...)
			b = append(b, spec.name...)
			b = append(b, ' ')
			b = append(b, spec.help...)
			b = append(b, '\n')
			b = append(b, "# TYPE "...)
			b = append(b, namespace...)
			b = append(b, spec.name...)
			b = append(b, " counter\n"...)
			b = append(b, namespace...)
			b = append(b, spec.name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, spec.get(tot), 10)
			b = append(b, '\n')
			for _, n := range nodes {
				if v := spec.get(n.Counters); v != 0 {
					b = append(b, namespace...)
					b = append(b, spec.name...)
					b = append(b, `{node="`...)
					b = strconv.AppendInt(b, int64(n.ID), 10)
					b = append(b, `"} `...)
					b = strconv.AppendInt(b, v, 10)
					b = append(b, '\n')
				}
			}
		}
	}
	if met != nil {
		for _, h := range met.Histograms() {
			b = appendHistogram(b, h)
		}
		for _, g := range met.Gauges() {
			b = append(b, "# TYPE "...)
			b = append(b, namespace...)
			b = append(b, g.Name()...)
			b = append(b, " gauge\n"...)
			b = append(b, namespace...)
			b = append(b, g.Name()...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, g.Value(), 10)
			b = append(b, '\n')
		}
	}
	return b
}

// appendHistogram writes one histogram in Prometheus histogram syntax: the
// per-bucket counts are cumulative and end with le="+Inf".
func appendHistogram(b []byte, h *obs.Histogram) []byte {
	bounds, counts := h.Buckets()
	name := namespace + h.Name()
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, " histogram\n"...)
	var cum int64
	for i, c := range counts {
		cum += c
		b = append(b, name...)
		b = append(b, `_bucket{le="`...)
		if i < len(bounds) {
			b = strconv.AppendFloat(b, bounds[i], 'g', -1, 64)
		} else {
			b = append(b, "+Inf"...)
		}
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, name...)
	b = append(b, "_sum "...)
	b = strconv.AppendFloat(b, h.Sum(), 'g', -1, 64)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count "...)
	b = strconv.AppendInt(b, h.Count(), 10)
	b = append(b, '\n')
	return b
}

// renderSnapshot writes the JSON snapshot: counter totals, per-node
// counters, and the metric set, in fixed field order.
func renderSnapshot(reg *obs.Registry, met *obs.Metrics) []byte {
	b := make([]byte, 0, 4096)
	b = append(b, '{')
	if reg != nil {
		nodes := reg.Snapshot()
		var tot obs.Counters
		for _, n := range nodes {
			tot.Add(n.Counters)
		}
		b = append(b, `"totals":`...)
		b = appendCounters(b, tot)
		b = append(b, `,"nodes":{`...)
		for i, n := range nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(n.ID), 10)
			b = append(b, `":`...)
			b = appendCounters(b, n.Counters)
		}
		b = append(b, '}')
	}
	if met != nil {
		if reg != nil {
			b = append(b, ',')
		}
		b = append(b, `"metrics":`...)
		b = met.AppendJSON(b)
	}
	b = append(b, '}', '\n')
	return b
}

func appendCounters(b []byte, c obs.Counters) []byte {
	b = append(b, `{"msgs_sent":`...)
	b = strconv.AppendInt(b, c.MsgsSent, 10)
	b = append(b, `,"bytes_sent":`...)
	b = strconv.AppendInt(b, c.BytesSent, 10)
	b = append(b, `,"msgs_recv":`...)
	b = strconv.AppendInt(b, c.MsgsRecv, 10)
	b = append(b, `,"msgs_dropped":`...)
	b = strconv.AppendInt(b, c.MsgsDrop, 10)
	b = append(b, `,"probes_sent":`...)
	b = strconv.AppendInt(b, c.ProbesSent, 10)
	b = append(b, `,"probes_dropped":`...)
	b = strconv.AppendInt(b, c.ProbesDropped, 10)
	b = append(b, `,"probes_returned":`...)
	b = strconv.AppendInt(b, c.ProbesReturned, 10)
	b = append(b, `,"budget_spent":`...)
	b = strconv.AppendInt(b, c.BudgetSpent, 10)
	b = append(b, `,"probes_retx":`...)
	b = strconv.AppendInt(b, c.ProbesRetx, 10)
	b = append(b, `,"dht_hops":`...)
	b = strconv.AppendInt(b, c.DHTHops, 10)
	b = append(b, `,"faults":`...)
	b = strconv.AppendInt(b, c.Faults, 10)
	b = append(b, '}')
	return b
}
