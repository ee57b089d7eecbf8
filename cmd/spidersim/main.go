// Command spidersim runs a configurable SpiderNet simulation: it builds a
// power-law IP network with a P2P service overlay on top, replays a stream
// of composite service requests through the BCP protocol (with proactive
// failure recovery under optional churn), and prints summary statistics.
//
// Example:
//
//	spidersim -peers 200 -requests 100 -budget 24 -churn 0.01
//
// Traces written with -trace are deterministic JSONL (gzipped when the path
// ends in .gz); spidertrace analyzes and checks one, and -check verifies the
// protocol invariants of the run itself.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its environment passed in: 0 on success, 1 with one line
// on stderr when the flags contradict each other or the run or its check
// failed, 2 when the flag package refused the command line. Never a panic.
func run(args []string, stdout, stderr io.Writer) int {
	switch err := simulate(args, stdout, stderr); err {
	case nil:
		return 0
	case errUsage:
		return 2
	default:
		fmt.Fprintln(stderr, err)
		return 1
	}
}

// optional parses a spec flag: nil when the flag was not given.
func optional[T any](flagValue string, parse func(string) (*T, error)) (*T, error) {
	if flagValue == "" {
		return nil, nil
	}
	return parse(flagValue)
}

// errUsage marks a command line the flag package has already reported.
var errUsage = errors.New("usage")

// simulate parses the command line and does what it asks, writing tables to
// stdout and progress to stderr.
func simulate(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("spidersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "simulation seed")
		ipNodes   = fs.Int("ipnodes", 2000, "IP-layer nodes")
		peers     = fs.Int("peers", 200, "overlay peers")
		functions = fs.Int("functions", 40, "function catalogue size")
		requests  = fs.Int("requests", 100, "composition requests")
		budget    = fs.Int("budget", 20, "probing budget per request")
		minFuncs  = fs.Int("minfuncs", 2, "min functions per request")
		maxFuncs  = fs.Int("maxfuncs", 4, "max functions per request (capped at -functions)")
		churn     = fs.Float64("churn", 0, "fraction of peers failing per minute, at least one per tick")
		scenario  = fs.String("scenario", "", "stress scenario layered on the workload, e.g. zipf=1.2,diurnal=60s@0.5,flash=fn3:10@30s+20s,churn=0.02@30s+20s")
		duration  = fs.Duration("duration", 5*time.Minute, "simulated duration")
		dagProb   = fs.Float64("dag", 0.2, "probability of DAG-shaped requests")
		commute   = fs.Float64("commute", 0.2, "probability of commutation links")
		faults    = fs.String("faults", "", "fault spec, e.g. loss=0.05,dup=0.01,jitter=20ms,partition=10s@30s,seed=3")
		domains   = fs.String("domains", "", "federate the overlay into administrative domains and commit cross-domain sessions with 2PC, e.g. domains=4,gateways=2,hold=10s,life=30s")
		loadBase  = fs.Duration("load", 0, "enable the overload control plane: per-peer processing delay base (M/M/1 inflation with utilization); 0 = off")
		shed      = fs.Float64("shed", 0.8, "with -load: utilization threshold at which peers shed probes (0 disables shedding)")
		specFile  = fs.String("spec", "", "compose a single request from a QoSTalk-style XML spec file")
		traceFile = fs.String("trace", "", "write a deterministic JSONL event trace to this file (.gz compresses)")
		stats     = fs.Bool("stats", false, "print per-layer counter tables, histograms, and a trace summary")
		check     = fs.Bool("check", false, "verify this run's trace invariants")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of whatever this command line does to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit (GODEBUG=memprofilerate=1 counts every object)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: spidersim reads no trace files; check one with spidertrace check", fs.Arg(0))
	}
	// The mode decides which flags mean anything; one given explicitly that
	// the mode never reads is refused, not ignored. A run (reads == nil)
	// reads every flag, -shed only under -load.
	var reads []string
	if *specFile != "" {
		reads = []string{"spec", "seed", "ipnodes", "peers", "functions"}
	}
	var unread error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case unread != nil || f.Name == "cpuprofile" || f.Name == "memprofile":
		case reads != nil && !slices.Contains(reads, f.Name):
			unread = fmt.Errorf("-%s: -spec does not read it", f.Name)
		case reads == nil && f.Name == "shed" && *loadBase <= 0:
			unread = errors.New("-shed: needs -load")
		}
	})
	if unread != nil {
		return unread
	}
	// Each flag's own range, and the workload's request sizes against the
	// catalogue (-spec reads neither); the rules that relate flags to the
	// deployment are cluster.Options.Validate's.
	for _, r := range []struct {
		ok   bool
		flag string
		val  any
		want string
	}{
		{*ipNodes >= 1, "ipnodes", *ipNodes, "at least 1"},
		{*peers >= 2, "peers", *peers, "at least 2"},
		{*functions >= 1, "functions", *functions, "at least 1"},
		{*requests >= 0, "requests", *requests, "at least 0"},
		{*duration > 0, "duration", *duration, "more than 0"},
		{*budget >= 1, "budget", *budget, "at least 1"},
		{*minFuncs >= 1, "minfuncs", *minFuncs, "at least 1"},
		{reads != nil || *minFuncs <= *functions, "minfuncs", *minFuncs, "at most -functions"},
		{*maxFuncs >= *minFuncs, "maxfuncs", *maxFuncs, "at least -minfuncs"},
		{*dagProb >= 0 && *dagProb <= 1, "dag", *dagProb, "a probability in [0,1]"},
		{*commute >= 0 && *commute <= 1, "commute", *commute, "a probability in [0,1]"},
		{*churn >= 0 && *churn <= 1, "churn", *churn, "a fraction in [0,1]"},
		{*loadBase >= 0, "load", *loadBase, "at least 0 (0 = off)"},
		{*shed >= 0 && *shed <= 1, "shed", *shed, "a utilization in [0,1]"},
	} {
		if !r.ok {
			return fmt.Errorf("-%s %v: want %s", r.flag, r.val, r.want)
		}
	}

	stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()

	if *specFile != "" {
		return composeSpec(*specFile, *seed, *ipNodes, *peers, *functions, stdout)
	}

	fspec, err := optional(*faults, simnet.ParseFaultSpec)
	if err != nil {
		return err
	}
	scn, err := optional(*scenario, workload.ParseScenario)
	if err != nil {
		return err
	}
	dspec, err := optional(*domains, federation.ParseSpec)
	if err != nil {
		return err
	}

	recCfg := recovery.DefaultConfig()
	catalog := cluster.Catalog(*functions)
	opts := cluster.Options{
		Seed:     *seed,
		IPNodes:  *ipNodes,
		Peers:    *peers,
		Catalog:  catalog,
		Recovery: &recCfg,
		Domains:  dspec,
	}
	if *loadBase > 0 {
		opts.Load = &cluster.LoadOptions{
			Model: qos.LoadModel{Base: *loadBase, Cap: 0.95},
			Aware: true,
			Shed:  *shed,
		}
	}
	if dspec != nil {
		// Federated sessions recover by presumed abort and bounded leases,
		// not by the per-session recovery manager, so -domains disables it.
		opts.Recovery = nil
	}
	if err := opts.Validate(); err != nil {
		return err
	}

	// The summary's latency rows read the histograms folded from the run's
	// events, so every run folds them.
	met := obs.NewMetrics()
	var (
		trace   obs.Tracer
		tf      *obs.TraceFile
		reg     *obs.Registry
		checker *obs.Checker
		spans   *span.Builder
		events  int
		tracers obs.MultiTracer
	)
	if *traceFile != "" {
		var err error
		tf, err = obs.CreateTrace(*traceFile)
		if err != nil {
			return err
		}
		tracers = append(tracers, tf)
	}
	// The checker, the span builder and the counter registry fold the run's
	// events as they are emitted, so no consumer needs the run buffered.
	if *check {
		checker = obs.NewChecker()
		tracers = append(tracers, obs.TracerFunc(func(ev obs.Event) { events++; checker.Add(ev) }))
	}
	if *stats {
		reg = obs.NewRegistry()
		spans = span.NewBuilder()
		tracers = append(tracers, obs.TracerFunc(spans.Add))
	}
	switch len(tracers) {
	case 0:
	case 1:
		trace = tracers[0]
	default:
		trace = tracers
	}

	opts.Trace, opts.Obs, opts.Metrics = trace, reg, met
	c := cluster.New(opts)
	c.ApplyFaultSpec(fspec)
	gen := workload.NewGenerator(workload.Config{
		Catalog:     catalog,
		Peers:       *peers,
		MinFuncs:    *minFuncs,
		MaxFuncs:    *maxFuncs,
		Budget:      *budget,
		DAGProb:     *dagProb,
		CommuteProb: *commute,
		DelayReqMin: 500,
		DelayReqMax: 2000,
		Scenario:    scn,
	}, c.Rng)

	// The run's instants — arrivals, churn ticks and windows, the horizon —
	// count from origin, the virtual time cluster.New settled at.
	origin := c.Sim.Now()
	plan := cluster.Plan{Horizon: origin + *duration}
	for i := 0; i < *requests; i++ {
		var req *service.Request
		var at time.Duration
		if scn == nil {
			// Draw order (request, then arrival) is load-bearing: it keeps
			// non-scenario runs byte-identical to earlier releases.
			req = gen.Next()
			at = time.Duration(float64(*duration) * c.Rng.Float64() * 0.8)
		} else {
			// Thin arrivals against the scenario's rate curve: a uniform
			// candidate instant survives with probability RateMult/peak, so
			// the accepted arrival density follows the diurnal/flash shape.
			at = time.Duration(float64(*duration) * c.Rng.Float64() * 0.8)
			if c.Rng.Float64()*scn.MaxRateMult(catalog) > scn.RateMult(at, catalog) {
				continue
			}
			req = gen.NextAt(at)
		}
		plan.Arrivals = append(plan.Arrivals, cluster.Arrival{At: origin + at, Req: req})
	}
	// Churn ticks, one a minute, fail a fraction of the peers drawn from the
	// cluster's stream; victims return two minutes later. A storm's window
	// ticks at least once, even when it is shorter than a minute.
	churnTicks := func(frac float64, from, until time.Duration) {
		ch := cluster.Churn{Rng: c.Rng, Frac: frac, DownFor: 2 * time.Minute}
		for at := from; at < until && at < *duration; at += time.Minute {
			ch.Ticks = append(ch.Ticks, origin+at)
		}
		plan.Churn = append(plan.Churn, ch)
	}
	if *churn > 0 {
		churnTicks(*churn, time.Minute, *duration)
	}
	if scn != nil && scn.ChurnRate > 0 {
		churnTicks(scn.ChurnRate, scn.ChurnAt, scn.ChurnAt+scn.ChurnDur)
	}
	var ok metrics.Ratio
	var commitLat metrics.Sample // cross-domain sessions: no event carries the client's commit latency
	run := c.Start(plan, func(_ int, o cluster.Outcome) {
		if o.Skipped {
			return
		}
		ok.Add(o.Ok)
		if o.Ok && o.Domains > 1 {
			commitLat.AddDuration(o.CommitLatency)
		}
	})
	run.Finish()
	hung := run.Issued - run.Completed

	st := c.Net.Stats()
	rec := c.RecoveryStats()
	// A federated run drained until every lease resolved, so a reservation
	// still held is a real leak.
	orphans := 0
	if dspec != nil {
		orphans = c.Orphans()
	}

	t := metrics.NewTable(fmt.Sprintf("spidersim: %d peers on %d IP nodes, %d requests, budget %d",
		*peers, *ipNodes, *requests, *budget), "metric", "value")
	if scn != nil {
		t.AddRow("scenario", scn.String())
	}
	t.AddRow("success ratio", ok.Value())
	t.AddRow("hung compositions", hung)
	// Each latency row names the events it averages: a federated request's
	// segments compose, discover and report like any other composition.
	mean := func(h *obs.Histogram) time.Duration { return time.Duration(h.Mean() * float64(time.Millisecond)) }
	t.AddRow(fmt.Sprintf("avg setup time (%d ok compose.done)", met.SetupLatency.Count()), mean(met.SetupLatency))
	t.AddRow(fmt.Sprintf("avg discovery time (%d ok disc.done)", met.DiscoveryLatency.Count()), mean(met.DiscoveryLatency))
	// The network's tally starts when cluster.New has settled; the registry
	// counts from the first registration.
	t.AddRow("messages sent (after setup)", st.MessagesSent)
	t.AddRow("bytes sent (after setup)", st.BytesSent)
	t.AddRow("probes sent (after setup)", st.ByType[bcp.MsgProbe])
	if dspec != nil {
		led := c.Fed.TotalLedger()
		t.AddRow("cross-domain sessions", commitLat.N())
		t.AddRow("avg commit latency", time.Duration(commitLat.Mean()*float64(time.Millisecond)))
		t.AddRow("fed prepares", led.Prepares)
		t.AddRow("fed commits", led.Commits)
		t.AddRow("fed aborts", led.Aborts+led.Expires)
		t.AddRow("orphaned reservations", orphans)
	} else {
		t.AddRow("failures detected", rec.FailuresDetected)
		t.AddRow("switchovers", rec.Switchovers)
		t.AddRow("reactive recoveries", rec.Reactives)
		t.AddRow("unrecovered failures", rec.Dead)
		t.AddRow("maintenance walks", rec.Walks)
		t.AddRow("stops per walk", float64(rec.WalkStops)/float64(max(rec.Walks, 1)))
		t.AddRow("silences localized by ping", rec.Localizations)
	}
	t.Render(stdout)

	if tf != nil {
		n := tf.Count()
		if err := tf.Close(); err != nil {
			return fmt.Errorf("trace %s: %w", *traceFile, err)
		}
		fmt.Fprintf(stderr, "trace: %d events -> %s\n", n, *traceFile)
	}
	if *stats {
		reg.Table("per-layer counters (all nodes, setup included)").Render(stdout)
		reg.PerNodeTable("busiest nodes", 10).Render(stdout)
		wire := metrics.NewTable("wire traffic by message type (after setup)", "type", "msgs", "bytes", "byte share")
		types := make([]string, 0, len(st.ByType))
		for typ := range st.ByType {
			types = append(types, typ)
		}
		slices.Sort(types)
		for _, typ := range types {
			wire.AddRow(typ, st.ByType[typ], st.BytesByType[typ], float64(st.BytesByType[typ])/float64(st.BytesSent))
		}
		wire.Render(stdout)
		met.Table("distribution metrics").Render(stdout)
		f := spans.Build()
		span.Summary(f, "trace summary").Render(stdout)
		span.PhaseTable(f, "setup-latency phases").Render(stdout)
	}
	if *check {
		if hung > 0 {
			return fmt.Errorf("check: %d of %d compositions never called back (hung sessions)", hung, run.Issued)
		}
		if orphans > 0 {
			return fmt.Errorf("check: %d alive peers left holding reservations after the drain", orphans)
		}
		vs := checker.Finish()
		for _, v := range vs {
			fmt.Fprintf(stderr, "check: this run: %s\n", v)
		}
		if len(vs) > 0 {
			return fmt.Errorf("check: this run: %d invariant violation(s)", len(vs))
		}
		fmt.Fprintf(stderr, "check: %d events ok\n", events)
	}
	return nil
}

// composeSpec parses one XML composite-service spec, binds random
// endpoints, and composes it on a fresh deployment.
func composeSpec(path string, seed int64, ipNodes, peers, functions int, stdout io.Writer) error {
	req, err := spec.ParseFile(path)
	if err != nil {
		return err
	}
	opts := cluster.Options{Seed: seed, IPNodes: ipNodes, Peers: peers, Catalog: cluster.Catalog(functions)}
	if err := opts.Validate(); err != nil {
		return err
	}
	c := cluster.New(opts)
	// Deploy the spec's functions too, in case the catalogue lacks them: in
	// spec order, because every Join draws from the cluster rng.
	for _, fn := range req.FGraph.Functions() {
		if c.Replicas(fn) > 0 {
			continue // in the catalogue, or joined for an earlier node
		}
		for i := 0; i < 3; i++ {
			c.Join([]string{fn}, 0)
		}
	}
	c.Sim.Run(c.Sim.Now() + 30*time.Second)

	req.ID = 1
	req.Source, req.Dest = 0, 1
	done := false
	c.Peers[0].Engine.Compose(req, func(res bcp.Result) {
		done = true
		if !res.Ok {
			fmt.Fprintln(stdout, "no qualified composition")
			return
		}
		fmt.Fprintf(stdout, "composed: %s\nQoS: %s\nbackups: %d\nsetup: %v (discovery %v)\n",
			res.Best, res.Best.QoS, len(res.Backups), res.SetupTime, res.DiscoveryTime)
	})
	c.Sim.Run(c.Sim.Now() + 120*time.Second)
	if !done {
		fmt.Fprintln(stdout, "composition never completed")
	}
	return nil
}
