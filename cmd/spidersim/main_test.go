package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// spidersim runs the command in-process and returns its exit code and both
// streams.
func spidersim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlagMistakesExitWithOneLine: every out-of-range flag, every
// combination cluster.Options.Validate refuses, every flag the chosen mode
// would not read and every positional argument (a trace file is
// spidertrace check's) exits non-zero with one line naming the mistake —
// never a goroutine dump, never a silent accept.
func TestFlagMistakesExitWithOneLine(t *testing.T) {
	for _, c := range []struct{ args, names string }{
		{"-minfuncs 5 -maxfuncs 2", "maxfuncs"},
		{"-minfuncs 0", "minfuncs"},
		{"-functions 0", "functions"},
		{"-peers 500 -ipnodes 100", "peers"},
		{"-peers 1", "peers"},
		{"-ipnodes 0", "-ipnodes 0: want at least 1"},
		{"-ipnodes -5", "-ipnodes -5: want at least 1"},
		{"-domains domains=4,gateways=3 -peers 10", "domains"},
		{"-domains domains=5 -functions 3 -peers 40 -ipnodes 200", "domains"},
		{"-churn -0.5", "churn"},
		{"-budget -3", "budget"},
		{"-shed 7", "shed"},
		{"-requests -1", "requests"},
		{"-dag 2", "-dag 2: want"},
		{"-commute -1", "-commute -1: want"},
		{"-load -5ms", "-load -5ms: want"},
		{"-duration 0", "-duration 0s: want"},
		{"-minfuncs 9 -maxfuncs 9 -functions 4", "-minfuncs 9: want at most -functions"},
		{"-faults loss=2", "loss"},
		{"-scenario zipf=-1", "zipf"},
		{"-domains domains=1", "domains"},
		{"-spec unused.xml -peers 500 -ipnodes 100", "unused.xml"},
		{"-spec f.xml -faults loss=0.5", "-faults"},
		{"-spec f.xml -trace t.jsonl -check -stats", "-check"},
		{"-check -seed 3 t.jsonl", "spidertrace check"},
		{"-seed 3 junk.jsonl", "spidertrace check"},
		{"-check run.jsonl run.jsonl.gz", "spidertrace check"},
		{"-spec f.xml extra", "spidertrace check"},
		{"-shed 0.5", "-shed"},
		{"-cpuprofile " + filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof"), "cpuprofile"},
		{"-memprofile " + filepath.Join(t.TempDir(), "no-such-dir", "mem.prof"), "memprofile"},
	} {
		code, stdout, stderr := spidersim(strings.Fields(c.args)...)
		if code == 0 || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q; want a refusal before anything runs", c.args, code, stdout)
		}
		msg := strings.TrimSpace(stderr)
		if strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine ") || !strings.Contains(msg, c.names) {
			t.Errorf("%s: stderr %q; want one line naming %q", c.args, stderr, c.names)
		}
	}
	for _, f := range []string{"-nosuchflag", "-shards", "-summarize", "-parallel"} {
		if code, _, stderr := spidersim(f, "4"); code != 2 || !strings.Contains(stderr, "not defined: "+f) {
			t.Errorf("%s 4: exit %d, stderr %q; want the flag package's exit 2", f, code, stderr)
		}
	}
}

// TestSpecComposesTheSameEveryTime: a spec whose functions the catalogue
// lacks joins their providers in spec order, so one seed gives one
// composition however often it is asked.
func TestSpecComposesTheSameEveryTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.xml")
	if err := os.WriteFile(path, []byte(`<composite name="stream">
  <function id="down" name="downscale"/>
  <function id="tick" name="stock-ticker"/>
  <function id="rq" name="requant"/>
  <dependency from="down" to="tick"/>
  <dependency from="tick" to="rq"/>
</composite>`), 0o644); err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 10; i++ {
		code, stdout, stderr := spidersim("-spec", path, "-peers", "60", "-ipnodes", "400")
		if code != 0 || !strings.Contains(stdout, "composed: ") {
			t.Fatalf("run %d: exit %d\nstdout: %s\nstderr: %s", i, code, stdout, stderr)
		}
		if i == 0 {
			first = stdout
		} else if stdout != first {
			t.Fatalf("run %d composed\n%s\nrun 0 composed\n%s", i, stdout, first)
		}
	}
}

// TestSmallRunChecksClean: one small valid run passes its own invariant and
// counter check and writes a trace that spidertrace check then accepts and
// that summarizes, the way spidertrace summary reads it, to the very rows
// -stats printed for the run, and splits into the very setup-phase table
// -stats printed last.
func TestSmallRunChecksClean(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl.gz")
	code, stdout, stderr := spidersim("-peers", "30", "-ipnodes", "200", "-requests", "5", "-check", "-stats", "-trace", trace)
	if code != 0 || !strings.Contains(stdout, "success ratio") || !strings.Contains(stderr, "events ok") {
		t.Fatalf("small run: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if out, err := exec.Command("go", "run", "../spidertrace", "check", trace).CombinedOutput(); err != nil || !strings.Contains(string(out), "events ok") {
		t.Errorf("spidertrace check %s: %v\n%s", trace, err, out)
	}
	b := span.NewBuilder()
	if err := obs.StreamTrace(trace, func(ev obs.Event) error { b.Add(ev); return nil }); err != nil {
		t.Fatal(err)
	}
	f := b.Build()
	summary := span.Summary(f, "trace summary").String()
	if !strings.Contains(summary, "events.compose.start ") || !strings.Contains(stdout, summary) {
		t.Errorf("the trace file summarizes to\n%s\nwhich -stats did not print:\n%s", summary, stdout)
	}
	const phases = "# setup-latency phases\n"
	_, printed, _ := strings.Cut(stdout, phases)
	if want := span.PhaseTable(f, "setup-latency phases").String(); phases+printed != want {
		t.Errorf("the trace file splits into\n%s\n-stats printed\n%s", want, phases+printed)
	}
	// The profile pair covers whatever the command line does.
	cpu, mem := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	if code, _, stderr := spidersim("-cpuprofile", cpu, "-memprofile", mem, "-peers", "30", "-ipnodes", "200", "-requests", "5"); code != 0 {
		t.Errorf("a run with profiles: exit %d, stderr %q", code, stderr)
	}
	for _, prof := range []string{cpu, mem} {
		if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", prof, err)
		}
	}
}

// TestStatsAttributesTheWire: -stats prints, besides the counter rollup with
// its discovery rows, messages and bytes per message type — enough to say
// which layer's which message carries the wire without reading a trace.
func TestStatsAttributesTheWire(t *testing.T) {
	code, stdout, stderr := spidersim("-peers", "30", "-ipnodes", "200", "-requests", "5", "-stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		"discovery lookups ", "discovery cache hits ", "discovery lookups hinted ",
		"# wire traffic by message type", "byte share", "dht.get.resp ", "dht.route ", "bcp.probe ",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-stats output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestChurnFailsWhatItAsksFor: -churn fails ⌊frac·peers⌋ live peers per
// minute tick, at least one, refilling a pick that is already down — 2 ticks
// of 1 % of 80 peers are 2 failures, 5 ticks of 5 % are 20.
func TestChurnFailsWhatItAsksFor(t *testing.T) {
	for _, c := range []struct {
		churn, duration string
		want            int
	}{{"0.01", "3m", 2}, {"0.05", "6m", 20}} {
		trace := filepath.Join(t.TempDir(), "run.jsonl")
		code, _, stderr := spidersim("-seed", "7", "-ipnodes", "600", "-peers", "80", "-requests", "60",
			"-churn", c.churn, "-duration", c.duration, "-trace", trace)
		if code != 0 {
			t.Fatalf("-churn %s: exit %d, stderr %q", c.churn, code, stderr)
		}
		downs := 0
		if err := obs.StreamTrace(trace, func(ev obs.Event) error {
			if ev.Kind == obs.KindNetDown {
				downs++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if downs != c.want {
			t.Errorf("-churn %s -duration %s traced %d net.down events, want %d", c.churn, c.duration, downs, c.want)
		}
	}
}

// TestEveryRequestIsIssued: arrivals count from the instant cluster.New
// settled, so a churn-free run issues all of its -requests — one drawn before
// the build settled is not dropped — and traces one compose.start each. The
// table's discovery row reads the fold of disc.done events, which a federated
// request's segments emit too, so a federated run prints it as well.
func TestEveryRequestIsIssued(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	code, stdout, stderr := spidersim("-peers", "30", "-ipnodes", "200", "-requests", "40", "-duration", "2s", "-trace", trace)
	if code != 0 || !strings.Contains(stdout, "avg discovery time ") {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	starts := 0
	if err := obs.StreamTrace(trace, func(ev obs.Event) error {
		if ev.Kind == obs.KindComposeStart {
			starts++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if starts != 40 {
		t.Errorf("-requests 40 traced %d compose.start events", starts)
	}
	code, stdout, stderr = spidersim("-peers", "30", "-ipnodes", "200", "-functions", "6", "-requests", "10", "-duration", "10s", "-domains", "domains=2")
	if code != 0 || !strings.Contains(stdout, "fed commits ") || !strings.Contains(stdout, "avg discovery time ") {
		t.Errorf("federated run: exit %d, want a discovery row\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestSummaryReadsTheFold: the summary's latency rows are the means of the
// very histograms -stats prints, setup over every ok compose.done (a
// federated request's segments included) and discovery over every ok
// disc.done, and each row names how many events it averages.
func TestSummaryReadsTheFold(t *testing.T) {
	code, stdout, stderr := spidersim("-seed", "1", "-peers", "60", "-ipnodes", "400", "-functions", "12",
		"-requests", "30", "-duration", "40s", "-domains", "domains=2,gateways=1", "-stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	row := func(prefix string) []string {
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, prefix) {
				return strings.Fields(line)
			}
		}
		t.Fatalf("stdout has no row %q:\n%s", prefix, stdout)
		return nil
	}
	for _, c := range []struct {
		hist, summary, events string
		n                     int
	}{
		{"setup_latency_ms ", "avg setup time ", "ok compose.done", 73},
		{"discovery_latency_ms ", "avg discovery time ", "ok disc.done", 50},
	} {
		h := row(c.hist) // name unit count mean p50 p90 p99 max
		mean, err := strconv.ParseFloat(h[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s(%d %s)", c.summary, c.n, c.events)
		s := row(c.summary)
		if h[2] != strconv.Itoa(c.n) || !strings.Contains(stdout, label+" ") || s[len(s)-1] != fmt.Sprintf("%.1fms", mean) {
			t.Errorf("%s counts %s with mean %s; want %d, and a summary row %q reading %.1fms, got %q",
				c.hist, h[2], h[3], c.n, label, mean, strings.Join(s, " "))
		}
	}
}
