package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metricReport is one end-to-end metric of one workload over a set's reps.
type metricReport struct {
	spread
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadReport struct {
	Why           string                  `json:"why"`
	VirtualDigest string                  `json:"virtual_digest"` // identical across the reps, or the set is incorrect
	EndToEnd      map[string]metricReport `json:"end_to_end"`
	Counts        map[string]int64        `json:"counts"`
	PerLayer      map[string]value        `json:"per_layer,omitempty"`
	Spans         []wallSpan              `json:"spans,omitempty"` // the traced run's wall spans
}

type suiteReport struct {
	Manifest  manifest                   `json:"manifest"`
	Seconds   float64                    `json:"seconds"`
	Reps      int                        `json:"reps"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Correct   bool                       `json:"correct"`
	Problems  []string                   `json:"problems,omitempty"`
}

// runChild runs one workload in a fresh process of this binary and parses
// the two JSON lines it ends with. A child that judged itself incorrect
// still returns its output, along with the error.
func runChild(workload string, seed int64, seconds float64, trace int) (contractResult, detail, error) {
	var res contractResult
	var det detail
	self, err := os.Executable()
	if err != nil {
		return res, det, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return res, det, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &det); err != nil {
		return res, det, fmt.Errorf("%s: detail line: %w", workload, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, det, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, det, runErr
}

// reps is how many timed runs of each workload a set holds.
const reps = 5

// runSet is one full set: a warm-up, reps timed runs of every workload
// interleaved round-robin (so drift of the machine hits all workloads alike),
// and, if traced, one traced run each. Children run one at a time.
func runSet(seed int64, seconds float64, traced bool) suiteReport {
	rep := suiteReport{Manifest: newManifest(seed), Seconds: seconds, Reps: reps,
		Workloads: map[string]*workloadReport{}}
	fail := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	fmt.Fprintf(os.Stderr, "warm-up: %s\n", cells[0].Name)
	if _, _, err := runChild(cells[0].Name, seed, seconds, 0); err != nil {
		fail("warm-up: %v", err)
	}
	values := map[string]map[string][]float64{}
	for _, c := range cells {
		rep.Workloads[c.Name] = &workloadReport{Why: c.Why, EndToEnd: map[string]metricReport{}}
		values[c.Name] = map[string][]float64{}
	}
	for i := 0; i < reps; i++ {
		for _, c := range cells {
			fmt.Fprintf(os.Stderr, "rep %d/%d: %s\n", i+1, reps, c.Name)
			res, det, err := runChild(c.Name, seed, seconds, 0)
			if err != nil {
				fail("%s rep %d: %v", c.Name, i+1, err)
				continue
			}
			w := rep.Workloads[c.Name]
			if w.VirtualDigest != "" && w.VirtualDigest != det.VirtualDigest {
				fail("%s rep %d: virtual digest %s differs from %s", c.Name, i+1, det.VirtualDigest, w.VirtualDigest)
			}
			w.VirtualDigest, w.Counts = det.VirtualDigest, det.Counts
			for name, v := range res.Metrics {
				values[c.Name][name] = append(values[c.Name][name], v.Value)
			}
		}
	}
	for _, c := range cells {
		for _, m := range endToEnd {
			rep.Workloads[c.Name].EndToEnd[m.Name] = metricReport{spreadOf(values[c.Name][m.Name]), m.Unit, m.Better, m.Bound}
		}
	}
	if traced {
		for _, c := range cells {
			fmt.Fprintf(os.Stderr, "traced: %s\n", c.Name)
			res, det, err := runChild(c.Name, seed, seconds, 1)
			if err != nil {
				fail("%s traced: %v", c.Name, err)
				continue
			}
			rep.Workloads[c.Name].PerLayer, rep.Workloads[c.Name].Spans = res.Metrics, det.Spans
		}
	}
	rep.Correct = len(rep.Problems) == 0
	return rep
}

func suiteMain(seed int64, seconds float64, agree bool) int {
	a := runSet(seed, seconds, !agree)
	if !agree {
		printTable(a)
		printJSON(a)
		if !a.Correct {
			return 1
		}
		return 0
	}
	b := runSet(seed, seconds, false)
	problems := append(a.Problems, b.Problems...)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tset 1\tset 2\tdifference\tbound\t")
	for _, c := range cells {
		wa, wb := a.Workloads[c.Name], b.Workloads[c.Name]
		if wa.VirtualDigest != wb.VirtualDigest {
			problems = append(problems, fmt.Sprintf("%s: virtual digest %s vs %s", c.Name, wa.VirtualDigest, wb.VirtualDigest))
		}
		for _, m := range endToEnd {
			x, y := wa.EndToEnd[m.Name].Median, wb.EndToEnd[m.Name].Median
			diff := ratio(math.Abs(x-y), math.Abs(x))
			bound := fmt.Sprintf("%g", m.Bound)
			if m.virtual() {
				bound = "exact"
			}
			verdict := ""
			if (m.virtual() && x != y) || diff > m.Bound {
				verdict = "DISAGREE"
				problems = append(problems, fmt.Sprintf("%s %s: %g vs %g", c.Name, m.Name, x, y))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%s\t%s\n", c.Name, m.Name, x, y, diff, bound, verdict)
		}
	}
	tw.Flush()
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "benchmark: agree:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Println("agree: two sets of the same code agree within the benchmark's bounds; virtual metrics and digests are identical")
	return 0
}

// printTable is the human view: end-to-end medians with quartiles, then the
// traced run's per-layer metrics, one column per workload.
func printTable(rep suiteReport) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "end to end (median [q1, q3])\tunit\t")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t", c.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t", m.Name, m.Unit)
		for _, c := range cells {
			s := rep.Workloads[c.Name].EndToEnd[m.Name]
			fmt.Fprintf(tw, "%.5g [%.5g, %.5g]\t", s.Median, s.Q1, s.Q3)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "n = %d runs of %g s each\t\t", rep.Reps, rep.Seconds)
	for _, c := range cells {
		fmt.Fprintf(tw, "%d ops\t", rep.Workloads[c.Name].Counts["attempted"])
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "per layer (one traced round)\tunit\t")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t", c.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t", m.Name, m.Unit)
		for _, c := range cells {
			fmt.Fprintf(tw, "%.5g\t", rep.Workloads[c.Name].PerLayer[m.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "benchmark:", p)
	}
}
