package admin

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testData() (*obs.Registry, *obs.Metrics) {
	reg := obs.NewRegistry()
	c3 := reg.Node(3)
	c3.MsgsSent.Store(10)
	c3.BytesSent.Store(2048)
	c3.ProbesSent.Store(4)
	c5 := reg.Node(5)
	c5.MsgsSent.Store(7)
	c5.DHTHops.Store(2)
	c5.DiscLookups.Store(9)
	c5.DiscCacheHits.Store(4)
	c5.DiscHinted.Store(6)
	c3.DiscJoined.Store(8)
	c5.DiscCarried.Store(5)
	c5.DiscDelta.Store(1)
	met := obs.NewMetrics()
	met.SetupLatency.ObserveDuration(40 * time.Millisecond)
	met.SetupLatency.ObserveDuration(3 * time.Millisecond)
	met.ActiveSessions.Set(2)
	return reg, met
}

func get(t *testing.T, h http.Handler, path string) (string, string) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rr.Code)
	}
	return rr.Body.String(), rr.Header().Get("Content-Type")
}

func TestMetricsExposition(t *testing.T) {
	reg, met := testData()
	h := Handler(reg, met)
	body, ct := get(t, h, "/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	for _, want := range []string{
		"# TYPE spidernet_msgs_sent_total counter",
		"spidernet_msgs_sent_total 17",
		`spidernet_msgs_sent_total{node="3"} 10`,
		`spidernet_msgs_sent_total{node="5"} 7`,
		`spidernet_dht_hops_total{node="5"} 2`,
		"spidernet_disc_lookups_total 9",
		"spidernet_disc_cache_hits_total 4",
		`spidernet_disc_hinted_total{node="5"} 6`,
		"spidernet_disc_joined_total 8",
		`spidernet_disc_carried_total{node="5"} 5`,
		"spidernet_disc_delta_total 1",
		"# TYPE spidernet_setup_latency_ms histogram",
		"spidernet_setup_latency_ms_count 2",
		"spidernet_setup_latency_ms_sum 43",
		`spidernet_setup_latency_ms_bucket{le="+Inf"} 2`,
		"# TYPE spidernet_active_sessions gauge",
		"spidernet_active_sessions 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	// Histogram buckets must be cumulative and non-decreasing.
	var prev int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "spidernet_setup_latency_ms_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = n
	}
	if prev != 2 {
		t.Fatalf("final cumulative bucket=%d want 2", prev)
	}
}

func TestMetricsNilSections(t *testing.T) {
	body, _ := get(t, Handler(nil, nil), "/metrics")
	if body != "" {
		t.Fatalf("nil reg+met should render empty exposition, got %q", body)
	}
	reg, _ := testData()
	body, _ = get(t, Handler(reg, nil), "/metrics")
	if !strings.Contains(body, "spidernet_msgs_sent_total 17") ||
		strings.Contains(body, "histogram") {
		t.Fatalf("reg-only exposition wrong:\n%s", body)
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg, met := testData()
	body, ct := get(t, Handler(reg, met), "/snapshot")
	if ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	for _, want := range []string{
		`"totals":{"msgs_sent":17`,
		`"3":{"msgs_sent":10`,
		`"metrics":{"histograms":[`,
		`"active_sessions":2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("snapshot missing %q:\n%s", want, body)
		}
	}
	// Deterministic rendering.
	again, _ := get(t, Handler(reg, met), "/snapshot")
	if body != again {
		t.Fatal("snapshot not deterministic")
	}
}

func TestHealthzAndPprof(t *testing.T) {
	h := Handler(nil, nil)
	body, _ := get(t, h, "/healthz")
	if body != "ok\n" {
		t.Fatalf("healthz=%q", body)
	}
	body, _ = get(t, h, "/debug/pprof/")
	if !strings.Contains(body, "profile") {
		t.Fatalf("pprof index:\n%s", body)
	}
}

func TestServeOverTCP(t *testing.T) {
	reg, met := testData()
	srv, err := Serve("127.0.0.1:0", reg, met)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "spidernet_setup_latency_ms_count 2") {
		t.Fatalf("live scrape missing histogram:\n%s", body)
	}
}
