// Command spidertrace analyzes SpiderNet trace files (.jsonl, optionally
// gzipped): it rebuilds the causal span tree of every composition request and
// reports where the setup time went, or checks the protocol invariants.
// Traces are decoded streaming, so multi-gigabyte sweep traces analyze in
// constant memory. A trace is a sequence of runs, each opened by a run.start
// event (a sweep has one per cell), and IDs are scoped to their run.
//
// Usage:
//
//	spidertrace <command> [flags] trace.jsonl[.gz]
//
// Commands:
//
//	summary [-orphans] forest rollup: runs, requests, outcomes, phase totals, events per kind, orphans
//	phases             per-phase latency breakdown across all requests
//	slow [-k N]        top-k slowest requests with per-phase columns
//	waterfall -req N   span waterfall of one request (federated subs nested)
//	critical [-req N | -k N]   critical path of one request, or of the top-k slowest
//	check              protocol invariants (obs.Checker) per run: one line per violation, exit 1 on any
//
// Every report is deterministic in the trace contents, so identically seeded
// runs produce byte-identical output — CI diffs reports across reruns.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = "usage: spidertrace {summary [-orphans]|phases|slow [-k N]|waterfall -req N|critical [-req N|-k N]|check} trace.jsonl[.gz]"

// reads names, per command, the flags it reads; one given to a command that
// does not read it is refused, not ignored.
var reads = map[string][]string{
	"summary":   {"orphans"},
	"phases":    nil,
	"slow":      {"k"},
	"waterfall": {"req"},
	"critical":  {"k", "req"},
	"check":     nil,
}

// run is main with its environment passed in: 0 on success, 1 when the
// command line or the trace is unusable, 2 on a flag the flag package rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "spidertrace: "+format+"\n", a...)
		return 1
	}
	if len(args) == 0 {
		return fail(usage)
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet("spidertrace "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 10, "how many requests to report")
	req := fs.Uint64("req", 0, "request ID to inspect")
	orphans := fs.Bool("orphans", false, "also list unattributable events")
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	read, known := reads[cmd]
	if !known {
		return fail("unknown command %q\n%s", cmd, usage)
	}
	unread, picks := "", 0 // picks counts -req and -k, which are alternatives
	fs.Visit(func(f *flag.Flag) {
		if unread == "" && !slices.Contains(read, f.Name) {
			unread = f.Name
		}
		if f.Name == "req" || f.Name == "k" {
			picks++
		}
	})
	switch {
	case unread != "":
		return fail("-%s: %s does not read it", unread, cmd)
	case picks == 2:
		return fail("-req and -k: %s reads one or the other", cmd)
	case *k < 1:
		return fail("-k %d: want at least 1", *k)
	case cmd == "waterfall" && *req == 0:
		return fail("waterfall needs -req N")
	}
	if fs.NArg() != 1 {
		return fail(usage)
	}
	path := fs.Arg(0)

	// One scan feeds the command's consumer: the invariant checker, or the
	// span builder every report reads. A file carries no counters, so the
	// registry cross-check is spidersim -check's.
	c, b, n := obs.NewChecker(), span.NewBuilder(), 0
	add := b.Add
	if cmd == "check" {
		add = c.Add
	}
	if err := obs.StreamTrace(path, func(ev obs.Event) error {
		n++
		add(ev)
		return nil
	}); err != nil {
		return fail("read %s: %v", path, err)
	}
	f := b.Build()

	switch cmd {
	case "check":
		vs := c.Finish()
		for _, v := range vs {
			fmt.Fprintf(stdout, "%s: %s\n", path, v)
		}
		if len(vs) > 0 {
			return fail("check %s: %d invariant violation(s)", path, len(vs))
		}
		fmt.Fprintf(stdout, "%s: %d events ok\n", path, n)
	case "summary":
		span.Summary(f, "trace "+path).Render(stdout)
		if *orphans || len(f.Orphans) > 0 {
			span.OrphanTable(f, "orphans").Render(stdout)
		}
	case "phases":
		span.PhaseTable(f, "setup-latency phases").Render(stdout)
	case "slow":
		span.SlowTable(f, *k, fmt.Sprintf("top %d slowest requests", *k)).Render(stdout)
	case "waterfall", "critical":
		trees := f.Slowest(*k)
		if *req != 0 {
			trees = nil // request IDs restart per run: every run's request *req
			for run := 1; run <= f.Runs; run++ {
				if t := f.Tree(run, *req); t != nil {
					trees = append(trees, t)
				}
			}
			if trees == nil {
				return fail("request %d not in trace", *req)
			}
		}
		for _, t := range trees {
			if f.Runs > 1 {
				fmt.Fprintf(stdout, "run %d\n", t.Run)
			}
			if cmd == "waterfall" {
				fmt.Fprint(stdout, span.Waterfall(t))
			} else {
				fmt.Fprint(stdout, span.Critical(t))
			}
		}
	}
	return 0
}
