// Command benchmark is the repo's end-to-end benchmark (see README.md and
// ../BENCHMARK.json). It has two modes.
//
// With -workload it is the driver's contract: it runs that one workload in
// this process for about -seconds seconds, checks the outputs, and prints as
// its last line {"correct", "attempted", "failed", "metrics"} — the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1. The
// line before it is a detail object (manifest, virtual digest, quartiles,
// wall spans).
//
// Without -workload it is the suite: every (workload, rep) runs in a fresh
// child process of this binary, serially — one untimed warm-up, five timed
// reps per workload interleaved round-robin, then one traced run per
// workload — and it prints a table and one JSON object. -agree runs two such
// sets back to back and fails if they disagree by more than the benchmark's
// own bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in-process and print the contract result; empty runs the suite")
		seed    = flag.Int64("seed", 1, "workload seed; the program under test only ever sees inputs generated from it")
		seconds = flag.Float64("seconds", 26, "how long one run measures; sets the number of rounds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		agree   = flag.Bool("agree", false, "suite: run two sets back to back and compare them against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-agree]")
		os.Exit(2)
	}

	// Run outside benchmark/ (a copied binary) there is no file to check.
	if err := checkContract(benchmarkJSONPath); errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "benchmark: not checked against BENCHMARK.json:", err)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *name == "" {
		os.Exit(suiteMain(*seed, *seconds, *agree))
	}
	c, ok := cellByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, det, err := runOne(c, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, p := range append(det.Problems, det.Notes...) {
		fmt.Fprintln(os.Stderr, "benchmark:", c.Name+":", p)
	}
	printJSON(det)
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the last line of a -workload run.
type contractResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is the line before it: what the contract's four keys have no room
// for.
type detail struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Traced        bool              `json:"traced"`
	Rounds        int               `json:"rounds"`
	Loop          string            `json:"loop"`
	VirtualDigest string            `json:"virtual_digest"`
	Counts        map[string]int64  `json:"counts"`
	Wall          map[string]spread `json:"wall"`               // per-round wall metrics: median, quartiles, n
	Problems      []string          `json:"problems,omitempty"` // any of these makes the run incorrect
	Notes         []string          `json:"notes,omitempty"`
	Spans         []wallSpan        `json:"spans"`
	Manifest      manifest          `json:"manifest"`
}

// trafficSeed gives every round of a run its own request stream.
func trafficSeed(seed int64, k int) int64 { return seed*1009 + 10*int64(k) }

// runOne is one process's worth of measurement on one cell.
//
// Untraced, it runs -seconds/nominalRoundS rounds — however long they take
// on this machine, so the same flags always do the same work — each building
// its world afresh, and reports wall metrics as the median over rounds and
// virtual metrics over the pooled operations of all rounds. Traced, it runs
// round 0 twice — plain, then with tracing, counters and a CPU profile on —
// requires the two to agree on every virtual quantity, and reports the
// traced round's per-layer attribution.
func runOne(c cell, seed int64, seconds float64, traced bool) (contractResult, detail, error) {
	rounds := int(seconds / nominalRoundS)
	if rounds < 1 || traced {
		rounds = 1
	}
	var rs []roundResult
	var problems, notes []string
	for k := 0; k < rounds; k++ {
		r, err := runCell(c, trafficSeed(seed, k), false)
		if err != nil {
			return contractResult{}, detail{}, err
		}
		rs = append(rs, r)
	}

	det := detail{
		Workload: c.Name, Seed: seed, Seconds: seconds, Traced: traced, Rounds: len(rs),
		Loop:     "open loop on the virtual clock: arrivals pre-scheduled from the seed, latency timed from the scheduled instant, generator lateness 0 by construction",
		Manifest: newManifest(seed),
	}
	res := contractResult{Metrics: map[string]value{}}

	if traced {
		tr, err := runCell(c, trafficSeed(seed, 0), true)
		if err != nil {
			return contractResult{}, detail{}, err
		}
		if tr.Digest != rs[0].Digest {
			problems = append(problems, fmt.Sprintf("traced round's virtual digest %s differs from the untraced %s", tr.Digest, rs[0].Digest))
		}
		for _, v := range tr.Violations {
			problems = append(problems, "trace invariant: "+v)
		}
		if tr.LostInCrash > 0 {
			notes = append(notes, fmt.Sprintf("%d probes unaccounted for in the trace: held by peers that churn crashed", tr.LostInCrash))
		}
		tr.Layer["obs.trace_overhead_share"] = ratio(tr.RunS-rs[0].RunS, rs[0].RunS)
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			tr.Layer["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = value{tr.Layer[m.Name], m.Unit}
		}
		rs = []roundResult{tr}
	}

	var pooled []time.Duration
	var attempted, ok, hung, killed, skipped, orphans int
	var events, msgs, bytes int64
	wall := map[string][]float64{}
	digests := ""
	for _, r := range rs {
		pooled = append(pooled, r.Latencies...)
		attempted += r.Attempted
		ok += r.Ok
		hung += r.Hung
		killed += r.SourceKilled
		skipped += r.SkippedDead
		orphans += r.Orphans
		events += r.Events
		msgs += r.Msgs
		bytes += r.Bytes
		wall["setup_s"] = append(wall["setup_s"], r.SetupS)
		wall["run_s"] = append(wall["run_s"], r.RunS)
		wall["peak_heap_mb"] = append(wall["peak_heap_mb"], r.PeakHeapMB)
		wall["allocs_per_op"] = append(wall["allocs_per_op"], ratio(float64(r.Mallocs), float64(r.Attempted)))
		digests += r.Digest
		det.Spans = append(det.Spans, r.Spans...)
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	det.Wall = map[string]spread{}
	for name, vs := range wall {
		det.Wall[name] = spreadOf(vs)
	}
	det.VirtualDigest = fnvHex(digests)
	det.Counts = map[string]int64{
		"attempted": int64(attempted), "ok": int64(ok), "hung": int64(hung),
		"source_killed_by_churn": int64(killed), "skipped_dead_source": int64(skipped),
		"orphans": int64(orphans), "events": events, "msgs": msgs, "bytes": bytes,
		"latency_samples": int64(len(pooled)),
	}

	if !traced {
		virtual := map[string]float64{
			"compose_p50_ms":    ms(percentile(pooled, 50)),
			"compose_p99_ms":    ms(percentile(pooled, 99)),
			"ok_share":          ratio(float64(ok), float64(attempted)),
			"msgs_per_session":  ratio(float64(msgs), float64(ok)),
			"bytes_per_session": ratio(float64(bytes), float64(ok)),
		}
		for _, m := range endToEnd {
			v, isVirtual := virtual[m.Name]
			if !isVirtual {
				v = det.Wall[m.Name].Median
			}
			res.Metrics[m.Name] = value{v, m.Unit}
		}
	}

	if hung > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations never called back", hung, attempted))
	}
	if orphans > 0 {
		problems = append(problems, fmt.Sprintf("%d alive peers still hold reservations after the federation drain", orphans))
	}
	if ok == 0 {
		problems = append(problems, "no operation succeeded")
	}
	if c.Gets > 0 && ok != attempted {
		problems = append(problems, fmt.Sprintf("%d of %d lookups and routes did not resolve", attempted-ok, attempted))
	}
	det.Problems, det.Notes = problems, notes
	res.Attempted, res.Failed = attempted, hung
	res.Correct = len(problems) == 0
	return res, det, nil
}
