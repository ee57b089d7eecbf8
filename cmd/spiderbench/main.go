// Command spiderbench regenerates the figures of the SpiderNet paper's
// evaluation (§6). Each figure prints as an aligned table with the same
// series the paper plots. experiment.Figures is the list of figures and of
// the flags each one takes; `spiderbench -h` prints it.
//
// Usage:
//
//	spiderbench -fig 8            # Figure 8 at laptop scale
//	spiderbench -fig 9 -paper     # Figure 9 at the paper's dimensions
//	spiderbench -fig all          # every figure marked [all] in -h
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/simnet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// figureNames lists the registry's -fig values, "all" last.
func figureNames() string {
	var names []string
	for _, f := range experiment.Figures {
		names = append(names, f.Name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// run is main with its environment passed in: 0 on success, 1 when the run
// failed, 2 on a flag the selected figure does not take.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spiderbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: "+figureNames())
	paper := fs.Bool("paper", false, "use the paper's full dimensions (slow)")
	seed := fs.Int64("seed", 1, "simulation seed")
	csvDir := fs.String("csv", "", "also write each figure as CSV into this directory")
	traceFile := fs.String("trace", "", "write a deterministic JSONL event trace of the simulated figures to this file")
	stats := fs.Bool("stats", false, "print per-layer counter tables after the simulated figures")
	faults := fs.String("faults", "", "fault spec layered onto the figures that take one, e.g. loss=0.05,jitter=20ms,partition=10s@30s")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for the independent cells of a figure; 1 = serial. Output is byte-identical at any value")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: spiderbench [flags]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "figures (and the flags each takes beyond -seed, -parallel, -csv):")
		for _, f := range experiment.Figures {
			fmt.Fprintf(stderr, "  %-10s %s%s\n", f.Name, f.Title, takes(f))
		}
		fmt.Fprintln(stderr, "with -fig all each flag reaches the figures that take it")
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Select the figures, then refuse a flag the one named figure would
	// silently ignore.
	var selected []experiment.Figure
	for _, f := range experiment.Figures {
		if *fig == f.Name || (*fig == "all" && f.All) {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "unknown figure %q; want %s\n", *fig, figureNames())
		return 2
	}
	var fspec *simnet.FaultSpec
	if *faults != "" {
		var err error
		if fspec, err = simnet.ParseFaultSpec(*faults); err != nil {
			fmt.Fprintf(stderr, "faults: %v\n", err)
			return 2
		}
	}

	if f := selected[0]; *fig != "all" {
		var bad string
		switch {
		case *paper && !f.Paper:
			bad = "-paper: figure %s has no paper-scale dimensions"
		case fspec != nil && !f.Faults:
			bad = "-faults: figure %s takes no fault spec"
		case *traceFile != "" && !f.Simulated:
			bad = "-trace: figure %s does not run on the simulator and emits no events"
		case *stats && !f.Simulated:
			bad = "-stats: figure %s does not run on the simulator and feeds no counters"
		}
		if bad != "" {
			fmt.Fprintf(stderr, bad+"\n", f.Name)
			return 2
		}
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	common := experiment.Common{Paper: *paper, Faults: fspec}
	common.Seed, common.Parallel = *seed, *parallel
	var tf *obs.TraceFile
	if *traceFile != "" {
		var err error
		if tf, err = obs.CreateTrace(*traceFile); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		common.Trace = tf
	}
	if *stats {
		common.Counters = obs.NewRegistry()
	}

	for _, f := range selected {
		fmt.Fprintf(stderr, "== %s (started %s)\n", f.Title, time.Now().Format(time.Kitchen))
		start := time.Now()
		c := common
		if !f.Simulated {
			c.Trace, c.Counters = nil, nil
		}
		outputs, footnote := f.Run(c)
		for _, o := range outputs {
			o.Table.Render(stdout)
			if *csvDir != "" {
				path := filepath.Join(*csvDir, o.CSV+".csv")
				if err := os.WriteFile(path, []byte(o.Table.CSV()), 0o644); err != nil {
					fmt.Fprintf(stderr, "csv: %v\n", err)
				}
			}
		}
		if footnote != "" {
			fmt.Fprintln(stdout, footnote)
		}
		fmt.Fprintf(stderr, "== %s done in %v\n\n", f.Title, time.Since(start).Round(time.Millisecond))
	}

	if tf != nil {
		n := tf.Count()
		if err := tf.Close(); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "trace: %d events -> %s\n", n, *traceFile)
	}
	if reg := common.Counters; reg != nil {
		reg.Table("per-layer counters (all nodes)").Render(stdout)
		reg.PerNodeTable("busiest nodes", 10).Render(stdout)
	}
	// With both -trace and -stats set, rebuild the span forest from the trace
	// just written and report where the setup time went.
	if tf != nil && *stats {
		b := span.NewBuilder()
		if err := obs.StreamTrace(*traceFile, func(ev obs.Event) error {
			b.Add(ev)
			return nil
		}); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		span.PhaseTable(b.Build(), "setup-latency phases (from trace)").Render(stdout)
	}
	return 0
}

// takes renders a figure's help-line suffix: whether -fig all runs it and
// which of the optional flags it accepts.
func takes(f experiment.Figure) string {
	s := ""
	if f.All {
		s += " [all]"
	}
	if f.Paper {
		s += " -paper"
	}
	if f.Faults {
		s += " -faults"
	}
	if f.Simulated {
		s += " -trace -stats"
	}
	return s
}
