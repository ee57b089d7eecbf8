package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
)

// benchmarkJSONPath is where BENCHMARK.json sits when the benchmark runs as
// its command says, from inside benchmark/ (go run -C benchmark ...).
const benchmarkJSONPath = "../BENCHMARK.json"

// benchmarkJSON mirrors BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkContract holds BENCHMARK.json to the tables the program reports from:
// same workloads and reasons, same metrics with the same unit, direction and
// bound, every name inside the contract's alphabet. benchmark/ is a module of
// its own, outside the root module's go test ./..., so every run checks this
// itself: the two cannot drift apart without the benchmark failing.
func checkContract(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if len(b.Workloads) != len(cells) {
		bad("%d workloads, the code has %d", len(b.Workloads), len(cells))
	}
	for i, w := range b.Workloads[:min(len(b.Workloads), len(cells))] {
		if w.Name != cells[i].Name || w.Why != cells[i].Why {
			bad("workload %d is %q (%q), the code has %q (%q)", i, w.Name, w.Why, cells[i].Name, cells[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			bad("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			bad("%s: %d metrics, the code has %d", kind, len(got), len(want))
		}
		for i, m := range got[:min(len(got), len(want))] {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				bad("%s %d is %s [%s, %s better], the code has %s [%s, %s better]", kind, i, m.Name, m.Unit, m.Better, w.Name, w.Unit, w.Better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				bad("%s %q: name or unit %q outside the contract's alphabet", kind, m.Name, m.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				bad("%s %q: bound differs from the code's %v, or is outside (0, 0.25]", kind, m.Name, w.Bound)
			case !bounded && m.Bound != nil:
				bad("%s %q: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if float64(b.RunSeconds) < nominalRoundS {
		bad("run_seconds %d is less than one round (%g s)", b.RunSeconds, nominalRoundS)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%s disagrees with the benchmark's code:\n%w", path, err)
	}
	return nil
}
