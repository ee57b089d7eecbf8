package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestLoadCellScheduleIsAlgorithmIndependent is the fairness property of the
// load driver: one cell — flash crowd plus churn storm, so popularity, rate
// and the dead-source skip are all in play — replayed under every algorithm
// of the table plans the identical (instant, request, source, functions)
// sequence and skips the identical arrivals.
func TestLoadCellScheduleIsAlgorithmIndependent(t *testing.T) {
	scn, err := workload.ParseScenario("zipf=1.1,flash=fn0:4@2s+2s,churn=0.1@1s+4s,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultStressConfig()
	cfg.IPNodes, cfg.Peers, cfg.Functions, cfg.TimeUnits = 400, 60, 12, 6
	var want []string
	var wantSkipped []int
	for _, alg := range algorithms {
		r := runLoadCell(loadCell{
			OpenLoop:     cfg.OpenLoop,
			scenario:     scn,
			perUnit:      6,
			budget:       cfg.Budget,
			model:        cfg.Model,
			shed:         cfg.Shed,
			recoverAfter: 2,
			alg:          alg,
		}, nil)
		var got []string
		for _, a := range r.plan.Arrivals {
			got = append(got, fmt.Sprintf("%v #%d from %d: %v", a.At, a.Req.ID, a.Req.Source, a.Req.FGraph.Functions()))
		}
		if r.Offered == 0 || r.Offered+len(r.skipped) != len(got) {
			t.Fatalf("%s: offered %d and skipped %d of %d arrivals", alg.name, r.Offered, len(r.skipped), len(got))
		}
		if want == nil {
			// The churn window must actually skip arrivals, or the property
			// is only checked on the flat schedule.
			if len(r.skipped) == 0 {
				t.Fatalf("all %d arrivals were issued; churn skipped none", len(got))
			}
			want, wantSkipped = got, r.skipped
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s planned a different sequence than %s:\n%v\nvs\n%v", alg.name, algorithms[0].name, got, want)
		}
		if !reflect.DeepEqual(r.skipped, wantSkipped) {
			t.Errorf("%s skipped arrivals %v, %s skipped %v", alg.name, r.skipped, algorithms[0].name, wantSkipped)
		}
	}
}
