// Command spidernode runs a live in-process SpiderNet deployment — one
// goroutine per peer with injected wide-area latencies, the runtime the
// paper's PlanetLab prototype corresponds to — composes a customizable
// video-streaming session, streams frames through it, and prints the
// timings.
//
// With -admin it serves the live observability plane over HTTP
// (/metrics in Prometheus text format, /snapshot JSON, /debug/pprof/*,
// /healthz) while the deployment runs; -hold keeps the deployment alive
// after the workload finishes so the endpoint can be scraped or profiled.
//
// Example:
//
//	spidernode -hosts 102 -functions 3 -frames 30 -speedup 10 \
//	    -admin 127.0.0.1:9090 -stats -trace run.jsonl.gz
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	spidernet "repro"
	"repro/internal/admin"
	"repro/internal/federation"
	"repro/internal/obs"
)

// previewDomains shows how a federation spec would carve up a live
// deployment: per-domain member ranges, gateway and coordinator assignments,
// and which media functions each domain would home. The live runtime itself
// runs unfederated; the simulator (spidersim -domains) executes the plan.
func previewDomains(spec string, hosts int, stdout io.Writer) error {
	s, err := federation.ParseSpec(spec)
	if err != nil {
		return err
	}
	plan, err := s.Plan(hosts)
	if err != nil {
		return err
	}
	catalog := spidernet.MediaFunctions()
	fmt.Fprintf(stdout, "federation plan: %s over %d hosts\n\n", s, hosts)
	for d := 0; d < plan.NumDomains; d++ {
		members := plan.Members[d]
		fmt.Fprintf(stdout, "domain %d: peers %d..%d (%d members)\n",
			d, members[0], members[len(members)-1], len(members))
		fmt.Fprintf(stdout, "  gateways:    %v\n", plan.Gateways(d))
		fmt.Fprintf(stdout, "  coordinator: %d\n", plan.Coordinator(d))
		fmt.Fprintf(stdout, "  functions:   %v\n", plan.CatalogFor(d, catalog))
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its environment passed in: 0 on success, 1 with one line
// on stderr when a flag is out of range or the run failed, 2 when the flag
// package refused the command line.
func run(args []string, stdout, stderr io.Writer) int {
	switch err := serve(args, stdout, stderr); err {
	case nil:
		return 0
	case errUsage:
		return 2
	default:
		fmt.Fprintln(stderr, err)
		return 1
	}
}

// errUsage marks a command line the flag package has already reported.
var errUsage = errors.New("usage")

// serve parses the command line and runs the deployment it describes.
func serve(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("spidernode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		hosts     = fs.Int("hosts", 102, "number of live peers")
		nfuncs    = fs.Int("functions", 3, "functions to compose (<=6)")
		frames    = fs.Int("frames", 30, "video frames to stream")
		budget    = fs.Int("budget", 20, "probing budget")
		speedup   = fs.Float64("speedup", 10, "wide-area time compression (1 = real time)")
		seed      = fs.Int64("seed", 1, "deployment seed")
		requests  = fs.Int("requests", 3, "compositions to run; request i runs between peers 2i and 2i+1")
		traceFile = fs.String("trace", "", "write a JSONL event trace to this file (.gz compresses)")
		stats     = fs.Bool("stats", false, "print counter and histogram tables after the workload")
		adminAddr = fs.String("admin", "", "serve /metrics, /snapshot, /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		hold      = fs.Duration("hold", 0, "keep the deployment (and admin endpoint) alive this long after the workload")
		domains   = fs.String("domains", "", "preview how a federation spec (e.g. domains=4,gateways=2) partitions the hosts, then exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "%s: spidernode takes flags only, and none after a word\n", fs.Arg(0))
		return errUsage
	}
	media := len(spidernet.MediaFunctions())
	switch {
	case *hosts < 2:
		return fmt.Errorf("-hosts %d: want at least 2", *hosts)
	case *nfuncs < 1 || *nfuncs > media:
		return fmt.Errorf("-functions %d: want 1 to %d, the media functions there are", *nfuncs, media)
	case *frames < 0:
		return fmt.Errorf("-frames %d: want at least 0", *frames)
	case *budget < 1:
		return fmt.Errorf("-budget %d: want at least 1", *budget)
	case *speedup <= 0:
		return fmt.Errorf("-speedup %v: want above 0", *speedup)
	case *requests < 0 || 2**requests > *hosts:
		return fmt.Errorf("-requests %d: want at least 0 and two of the %d hosts each", *requests, *hosts)
	case *hold < 0:
		return fmt.Errorf("-hold %v: want at least 0", *hold)
	}

	if *domains != "" {
		return previewDomains(*domains, *hosts, stdout)
	}

	var trace obs.Tracer
	if *traceFile != "" {
		tf, terr := obs.CreateTrace(*traceFile)
		if terr != nil {
			return terr
		}
		trace = tf
		// Registered before the deployment starts, so it runs after the
		// deferred live.Close(): every peer goroutine has stopped emitting
		// by the time the trace flushes, and a flush/close failure still
		// reaches the exit code.
		defer func() {
			n := tf.Count()
			if cerr := tf.Close(); cerr != nil {
				if err == nil {
					err = fmt.Errorf("trace %s: %w", *traceFile, cerr)
				}
				return
			}
			fmt.Fprintf(stderr, "trace: %d events -> %s\n", n, *traceFile)
		}()
	}
	reg := spidernet.NewCounterRegistry()
	met := spidernet.NewMetrics()

	live := spidernet.NewLive(spidernet.LiveOptions{
		Hosts:    *hosts,
		Seed:     *seed,
		Speedup:  *speedup,
		Trace:    trace,
		Counters: reg,
		Metrics:  met,
	})
	defer live.Close()

	if *adminAddr != "" {
		srv, err := admin.Serve(*adminAddr, reg, met)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "admin: http://%s/metrics\n", srv.Addr())
	}

	var fns []string
	for _, f := range spidernet.MediaFunctions() {
		if live.Replicas(f) > 0 {
			fns = append(fns, f)
		}
	}
	if len(fns) < *nfuncs {
		return fmt.Errorf("only %d functions have replicas; lower -functions", len(fns))
	}
	fns = fns[:*nfuncs]
	fmt.Fprintf(stdout, "live deployment: %d hosts, composing %v\n\n", *hosts, fns)

	for i := 0; i < *requests; i++ {
		req := spidernet.NewRequest().
			Functions(fns...).
			MaxDelay(20*time.Second).
			Bandwidth(200).
			Budget(*budget).
			Between(spidernet.PeerID(2*i), spidernet.PeerID(2*i+1)).
			MustBuild()
		res := live.Compose(req)
		if !res.Ok {
			fmt.Fprintf(stdout, "request %d: no qualified composition\n", i)
			continue
		}
		fmt.Fprintf(stdout, "request %d: %s\n", i, res.Best)
		fmt.Fprintf(stdout, "  setup %v (discovery %v)\n",
			live.Unscale(res.SetupTime).Round(time.Millisecond),
			live.Unscale(res.DiscoveryTime).Round(time.Millisecond))
		got := live.Stream(res.Best, *frames, 640, 480, 60*time.Second)
		fmt.Fprintf(stdout, "  streamed %d/%d frames\n", len(got), *frames)
		live.Teardown(res.Best)
	}

	if *stats {
		reg.Table("per-layer counters (all nodes)").Render(stdout)
		reg.PerNodeTable("busiest nodes", 10).Render(stdout)
		met.Table("distribution metrics").Render(stdout)
	}
	if *hold > 0 {
		fmt.Fprintf(stderr, "holding deployment for %v\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}
