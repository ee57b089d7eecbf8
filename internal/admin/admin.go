// Package admin serves the live observability plane over HTTP: a hand-rolled
// Prometheus text exposition of the obs counters and histograms, a JSON
// snapshot, Go pprof profiling, and a health probe. It uses only the standard
// library — the exposition format is simple enough that pulling in a client
// library would cost more than writing the ~100 lines by hand.
//
// Endpoints:
//
//	/healthz        liveness probe ("ok")
//	/metrics        Prometheus text format (counters, histograms)
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

// renderMetrics writes the Prometheus text exposition format (v0.0.4):
// HELP/TYPE headers, counter totals plus per-node breakdowns, histograms
// with cumulative le buckets and _sum/_count.
func renderMetrics(reg *obs.Registry, met *obs.Metrics) []byte {
	b := make([]byte, 0, 4096)
	if reg != nil {
		nodes := reg.Snapshot()
		var tot obs.Counters
		for _, n := range nodes {
			tot.Add(n.Counters)
		}
		for _, k := range obs.CounterTable {
			name := k.Name() + "_total"
			b = append(b, "# HELP "...)
			b = append(b, namespace...)
			b = append(b, name...)
			b = append(b, ' ')
			b = append(b, k.Help()...)
			b = append(b, '\n')
			b = append(b, "# TYPE "...)
			b = append(b, namespace...)
			b = append(b, name...)
			b = append(b, " counter\n"...)
			b = append(b, namespace...)
			b = append(b, name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, k.Value(&tot), 10)
			b = append(b, '\n')
			for _, n := range nodes {
				if v := k.Value(&n.Counters); v != 0 {
					b = append(b, namespace...)
					b = append(b, name...)
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
	}
	return b
}

// appendHistogram writes one histogram in Prometheus histogram syntax: the
// per-bucket counts are cumulative and end with le="+Inf", which _count
// repeats; the buckets and _sum come from one snapshot.
func appendHistogram(b []byte, h *obs.Histogram) []byte {
	bounds, counts, sum := h.Buckets()
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
	b = strconv.AppendFloat(b, sum, 'g', -1, 64)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count "...)
	b = strconv.AppendInt(b, cum, 10)
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

// appendCounters writes one counter block as a JSON object, keyed by the
// counters' exported names in table order.
func appendCounters(b []byte, c obs.Counters) []byte {
	b = append(b, '{')
	for i, k := range obs.CounterTable {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, k.Name()...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, k.Value(&c), 10)
	}
	return append(b, '}')
}
