package main

import (
	"bytes"
	"os"
	"path/filepath"
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
// combination cluster.Options.Validate refuses and every flag the chosen mode
// would not read exits non-zero with one line naming the flag at fault —
// never a goroutine dump, never a silent accept.
func TestFlagMistakesExitWithOneLine(t *testing.T) {
	for _, c := range []struct{ args, names string }{
		{"-minfuncs 5 -maxfuncs 2", "maxfuncs"},
		{"-minfuncs 0", "minfuncs"},
		{"-functions 0", "functions"},
		{"-peers 500 -ipnodes 100", "peers"},
		{"-peers 1", "peers"},
		{"-domains domains=4,gateways=3 -peers 10", "domains"},
		{"-domains domains=5 -functions 3 -peers 40 -ipnodes 200", "domains"},
		{"-churn -0.5", "churn"},
		{"-budget -3", "budget"},
		{"-shed 7", "shed"},
		{"-requests -1", "requests"},
		{"-faults loss=2", "loss"},
		{"-scenario zipf=-1", "zipf"},
		{"-domains domains=1", "domains"},
		{"-spec unused.xml -peers 500 -ipnodes 100", "unused.xml"},
		{"-spec f.xml -faults loss=0.5", "-faults"},
		{"-spec f.xml -trace t.jsonl -check -stats", "-check"},
		{"-check -seed 3 t.jsonl", "-seed"},
		{"-shed 0.5", "-shed"},
		{"-parallel 2", "-parallel"},
		{"-check -parallel 2", "-parallel"},
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
	for _, f := range []string{"-nosuchflag", "-shards", "-summarize"} {
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

// TestSmallRunChecksClean: one small valid run passes its own invariant
// check and writes a trace that -check then accepts as a file and that
// summarizes, the way spidertrace summary reads it, to the very rows -stats
// printed for the run; a trace that does not exist fails -check.
func TestSmallRunChecksClean(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl.gz")
	code, stdout, stderr := spidersim("-peers", "30", "-ipnodes", "200", "-requests", "5", "-check", "-stats", "-trace", trace)
	if code != 0 || !strings.Contains(stdout, "success ratio") || !strings.Contains(stderr, "events ok") {
		t.Fatalf("small run: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if code, _, stderr := spidersim("-check", trace); code != 0 || !strings.Contains(stderr, "events ok") {
		t.Errorf("-check %s: exit %d, stderr %q", trace, code, stderr)
	}
	b := span.NewBuilder()
	if err := obs.StreamTrace(trace, func(ev obs.Event) error { b.Add(ev); return nil }); err != nil {
		t.Fatal(err)
	}
	summary := span.Summary(b.Build(), "trace summary").String()
	if !strings.Contains(summary, "events.compose.start ") || !strings.Contains(stdout, summary) {
		t.Errorf("the trace file summarizes to\n%s\nwhich -stats did not print:\n%s", summary, stdout)
	}
	// The profile pair covers whatever the command line does, offline
	// analysis included.
	cpu, mem := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	if code, _, stderr := spidersim("-cpuprofile", cpu, "-memprofile", mem, "-check", trace); code != 0 {
		t.Errorf("-check with profiles: exit %d, stderr %q", code, stderr)
	}
	for _, prof := range []string{cpu, mem} {
		if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", prof, err)
		}
	}
	if code, _, stderr := spidersim("-check", trace+".missing"); code == 0 || !strings.Contains(stderr, "no such file") {
		t.Errorf("-check on a nonexistent file: exit %d, stderr %q", code, stderr)
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
