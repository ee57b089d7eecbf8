package obs_test

import (
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/admin"
	"repro/internal/obs"
)

// TestRegistryMerge is the counter table's ratchet: it fills every
// NodeCounters field, found by reflection rather than through the table,
// with a value of its own, so a counter added to the structs but left out of
// obs.CounterTable is missing from Totals, Merge, Table, /metrics or
// /snapshot here.
func TestRegistryMerge(t *testing.T) {
	a, b := obs.NewRegistry(), obs.NewRegistry()
	a.Node(1).MsgsSent.Store(100)
	a.Node(2).MsgsSent.Store(5)
	src := reflect.ValueOf(b.Node(1)).Elem()
	want := make(map[string]int64, src.NumField())
	for i := 0; i < src.NumField(); i++ {
		v := int64(1_000_003 + 7_919*i)
		src.Field(i).Addr().Interface().(*atomic.Int64).Store(v)
		want[src.Type().Field(i).Name] = v
	}

	a.Merge(b)
	tot := reflect.ValueOf(b.Totals())
	merged := reflect.ValueOf(a.Node(1).Snapshot())
	reports := map[string]string{"Table": b.Table("t").String()}
	for _, path := range []string{"/metrics", "/snapshot"} {
		rr := httptest.NewRecorder()
		admin.Handler(b, nil).ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		reports[path] = rr.Body.String()
	}
	for name, v := range want {
		if got := tot.FieldByName(name).Int(); got != v {
			t.Errorf("Totals %s = %d, want %d", name, got, v)
		}
		wantMerged := v
		if name == "MsgsSent" {
			wantMerged += 100
		}
		if got := merged.FieldByName(name).Int(); got != wantMerged {
			t.Errorf("node 1 %s = %d after merge, want %d", name, got, wantMerged)
		}
		for report, body := range reports {
			if !strings.Contains(body, strconv.FormatInt(v, 10)) {
				t.Errorf("%s does not report %s (%d)", report, name, v)
			}
		}
	}
	// One row per field, and the newest ones under their own names.
	if len(obs.CounterTable) != src.NumField() {
		t.Errorf("%d counter rows for %d NodeCounters fields", len(obs.CounterTable), src.NumField())
	}
	for report, line := range map[string]string{
		"/metrics":  "spidernet_disc_carried_short_total " + strconv.FormatInt(want["DiscCarriedShort"], 10),
		"/snapshot": `"disc_carried_short":` + strconv.FormatInt(want["DiscCarriedShort"], 10),
		"Table":     "discovery tails short",
	} {
		if !strings.Contains(reports[report], line) {
			t.Errorf("%s lacks %q", report, line)
		}
	}
	if len(a.Snapshot()) != 2 || b.Node(1).MsgsSent.Load() != want["MsgsSent"] {
		t.Error("merge must add nodes to the receiver only and leave its argument alone")
	}
}
