package experiment

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// TestLoadCellScheduleIsAlgorithmIndependent is the fairness property of the
// load driver: one cell — flash crowd plus churn storm, so popularity, rate
// and the dead-source skip are all in play — replayed under every algorithm
// of the table issues the identical (instant, request, source, functions)
// sequence.
func TestLoadCellScheduleIsAlgorithmIndependent(t *testing.T) {
	scn, err := workload.ParseScenario("zipf=1.1,flash=fn0:4@2s+2s,churn=0.1@1s+4s,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultStressConfig()
	cfg.IPNodes, cfg.Peers, cfg.Functions, cfg.TimeUnits = 400, 60, 12, 6
	var want []string
	for _, alg := range algorithms {
		var got []string
		r := runLoadCell(loadCell{
			OpenLoop:     cfg.OpenLoop,
			scenario:     scn,
			perUnit:      6,
			budget:       cfg.Budget,
			model:        cfg.Model,
			shed:         cfg.Shed,
			recoverAfter: 2,
			alg:          alg,
			issued: func(at time.Duration, req *service.Request) {
				got = append(got, fmt.Sprintf("%v #%d from %d: %v", at, req.ID, req.Source, req.FGraph.Functions()))
			},
		}, nil)
		if r.Offered != len(got) || len(got) == 0 {
			t.Fatalf("%s: offered %d, observed %d issues", alg.name, r.Offered, len(got))
		}
		if want == nil {
			want = got
			// The churn window must actually skip arrivals, or the property
			// is only checked on the flat schedule.
			scheduled := 0
			for unit := 0; unit < cfg.TimeUnits; unit++ {
				at := time.Duration(unit) * cfg.TimeUnit
				scheduled += int(6*scn.RateMult(at, catalogOf(cfg)) + 0.5)
			}
			if len(got) >= scheduled {
				t.Fatalf("all %d scheduled arrivals were issued; churn skipped none", scheduled)
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s issued a different sequence than %s:\n%v\nvs\n%v", alg.name, algorithms[0].name, got, want)
		}
	}
}

func catalogOf(cfg StressConfig) []string { return cfg.options(nil).Catalog }
