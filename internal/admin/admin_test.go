package admin

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
)

// testData gives node 3 the counter values 10, 20, 30, ... and node 5 the
// values 1, 2, 3, ..., in NodeCounters field order, so counter i totals
// 11*(i+1).
func testData() (*obs.Registry, *obs.Metrics) {
	reg := obs.NewRegistry()
	for id, scale := range map[p2p.NodeID]int64{3: 10, 5: 1} {
		c := reflect.ValueOf(reg.Node(id)).Elem()
		for i := 0; i < c.NumField(); i++ {
			c.Field(i).Addr().Interface().(*atomic.Int64).Store(scale * int64(i+1))
		}
	}
	met := obs.NewMetrics()
	met.SetupLatency.ObserveDuration(40 * time.Millisecond)
	met.SetupLatency.ObserveDuration(3 * time.Millisecond)
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
		"spidernet_msgs_sent_total 11",
		`spidernet_msgs_sent_total{node="3"} 10`,
		`spidernet_msgs_sent_total{node="5"} 1`,
		`spidernet_dht_hops_total{node="5"} 12`,
		"spidernet_disc_lookups_total 143",
		"spidernet_disc_cache_hits_total 154",
		`spidernet_disc_hinted_total{node="5"} 15`,
		"spidernet_disc_joined_total 176",
		`spidernet_disc_carried_total{node="5"} 17`,
		"spidernet_disc_carried_short_total 198",
		"spidernet_disc_delta_total 209",
		"spidernet_disc_stale_total 220",
		"spidernet_probes_credited_total 88",
		"spidernet_probes_shed_total 121",
		`spidernet_fed_aborts_total{node="3"} 240`,
		"# TYPE spidernet_setup_latency_ms histogram",
		"spidernet_setup_latency_ms_count 2",
		"spidernet_setup_latency_ms_sum 43",
		`spidernet_setup_latency_ms_bucket{le="+Inf"} 2`,
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

// TestScrapeWhileObserving renders the exposition over and over while two
// goroutines observe: every scrape must print each histogram's _count equal to
// its le="+Inf" bucket, as the Prometheus text format requires. Run it under
// -race.
func TestScrapeWhileObserving(t *testing.T) {
	met := obs.NewMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					met.SetupLatency.Observe(float64(i % 1000))
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()
	for scrape := 0; scrape < 300; scrape++ {
		values := map[string]string{}
		for _, line := range strings.Split(string(renderMetrics(nil, met)), "\n") {
			if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
				values[line[:i]] = line[i+1:]
			}
		}
		for _, h := range met.Histograms() {
			name := namespace + h.Name()
			inf, count := values[name+`_bucket{le="+Inf"}`], values[name+"_count"]
			if inf == "" || inf != count {
				t.Fatalf("scrape %d: %s le=\"+Inf\" bucket %q, _count %q", scrape, name, inf, count)
			}
		}
	}
	if met.SetupLatency.Count() == 0 {
		t.Fatal("no observation landed during the scrapes")
	}
}

func TestMetricsNilSections(t *testing.T) {
	body, _ := get(t, Handler(nil, nil), "/metrics")
	if body != "" {
		t.Fatalf("nil reg+met should render empty exposition, got %q", body)
	}
	reg, _ := testData()
	body, _ = get(t, Handler(reg, nil), "/metrics")
	if !strings.Contains(body, "spidernet_msgs_sent_total 11") ||
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
		`"totals":{"msgs_sent":11`,
		`"3":{"msgs_sent":10`,
		`"metrics":{"histograms":[`,
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
