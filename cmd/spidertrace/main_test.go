package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

const goldenTrace = "../../testdata/golden_trace.jsonl.gz"

// spidertrace runs the command in-process and returns its exit code and both
// streams.
func spidertrace(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestBadInvocationsExitWithMessage: a command line or a trace the tool
// cannot use exits non-zero with a spidertrace: line on stderr and nothing on
// stdout — no report built from half an input.
func TestBadInvocationsExitWithMessage(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("this is not a trace\n{\"also\": not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.jsonl.gz")
	if err := os.WriteFile(truncated, golden[:len(golden)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, names string
		args        []string
	}{
		{"no arguments", "usage:", nil},
		{"unknown command", "frobnicate", []string{"frobnicate", goldenTrace}},
		{"no trace file", "usage:", []string{"summary"}},
		{"two trace files", "usage:", []string{"phases", goldenTrace, goldenTrace}},
		{"waterfall without -req", "-req", []string{"waterfall", goldenTrace}},
		{"phases reads neither -k nor -req", "-k: phases", []string{"phases", "-k", "5", "-req", "3", goldenTrace}},
		{"waterfall does not read -k", "-k: waterfall", []string{"waterfall", "-req", "2", "-k", "3", goldenTrace}},
		{"waterfall does not read -orphans", "-orphans: waterfall", []string{"waterfall", "-req", "2", "-orphans", goldenTrace}},
		{"slow does not read -req", "-req: slow", []string{"slow", "-req", "4", goldenTrace}},
		{"summary does not read -k", "-k: summary", []string{"summary", "-k", "3", goldenTrace}},
		{"critical does not read -orphans", "-orphans: critical", []string{"critical", "-orphans", goldenTrace}},
		{"check does not read -k", "-k: check", []string{"check", "-k", "3", "t"}},
		{"check without a trace file", "usage:", []string{"check"}},
		{"slow -k -1", "-k -1", []string{"slow", "-k", "-1", goldenTrace}},
		{"critical -k 0", "-k 0", []string{"critical", "-k", "0", goldenTrace}},
		{"critical reads -req or -k, not both", "-req and -k: critical", []string{"critical", "-req", "2", "-k", "3", goldenTrace}},
		{"request not in trace", "999999", []string{"critical", "-req", "999999", goldenTrace}},
		{"unreadable file", "no-such-trace", []string{"summary", filepath.Join(t.TempDir(), "no-such-trace.jsonl")}},
		{"garbage file", "garbage.jsonl", []string{"phases", garbage}},
		{"truncated gzip", "truncated.jsonl.gz", []string{"critical", truncated}},
	} {
		code, stdout, stderr := spidertrace(c.args...)
		if code == 0 || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q; want a refusal and no report", c.name, code, stdout)
		}
		if !strings.HasPrefix(stderr, "spidertrace: ") || !strings.Contains(stderr, c.names) || strings.Contains(stderr, "goroutine ") {
			t.Errorf("%s: stderr %q; want a spidertrace: line naming %q", c.name, stderr, c.names)
		}
	}
	if code, _, stderr := spidertrace("slow", "-nosuchflag", goldenTrace); code != 2 || !strings.Contains(stderr, "nosuchflag") {
		t.Errorf("-nosuchflag: exit %d, stderr %q; want the flag package's exit 2", code, stderr)
	}
}

// TestReportsOnGoldenTrace: phases followed by critical on the committed
// trace is exactly testdata/golden_spans.txt (the pair ci.sh's span gate
// renders); the reports the golden file does not cover exit 0 and render
// their table.
func TestReportsOnGoldenTrace(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden_spans.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, cmd := range []string{"phases", "critical"} {
		code, stdout, stderr := spidertrace(cmd, goldenTrace)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", cmd, code, stderr)
		}
		got += stdout
	}
	if got != string(want) {
		t.Errorf("phases+critical differ from golden_spans.txt:\n%s", got)
	}

	code, stdout, stderr := spidertrace("summary", "-orphans", goldenTrace)
	if code != 0 || stderr != "" || !strings.Contains(stdout, "trace "+goldenTrace) ||
		!strings.Contains(stdout, "events.compose.start ") || !strings.Contains(stdout, "# orphans") {
		t.Errorf("summary -orphans: exit %d, stderr %q, stdout %q", code, stderr, stdout)
	}
	code, slow, _ := spidertrace("slow", "-k", "3", goldenTrace)
	if code != 0 || !strings.Contains(slow, "top 3 slowest requests") {
		t.Errorf("slow -k 3: exit %d, stdout %q", code, slow)
	}
	// The golden report opens with the slowest request's critical path;
	// -req must select that same tree, for critical and for waterfall.
	code, crit, _ := spidertrace("critical", "-req", "4", goldenTrace)
	if code != 0 || !strings.HasPrefix(crit, "req 4  critical path") || !strings.Contains(string(want), crit) {
		t.Errorf("critical -req 4: exit %d, stdout %q", code, crit)
	}
	if code, wf, _ := spidertrace("waterfall", "-req", "4", goldenTrace); code != 0 || !strings.Contains(wf, "compose") {
		t.Errorf("waterfall -req 4: exit %d, stdout %q", code, wf)
	}
}

// TestCheckVerdicts: check passes the golden trace with one "events ok" line,
// and fails a copy of it missing one probe.returned record — a probe that
// leaked without a trace — with one probe-conservation line.
func TestCheckVerdicts(t *testing.T) {
	code, stdout, stderr := spidertrace("check", goldenTrace)
	if code != 0 || stderr != "" || strings.Count(stdout, "\n") != 1 || !strings.Contains(stdout, "events ok") {
		t.Fatalf("check on the golden trace: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}

	f, err := os.Open(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	for i, line := range lines {
		if strings.Contains(line, `"kind":"probe.returned"`) {
			lines = append(lines[:i], lines[i+1:]...)
			break
		}
	}
	leaked := filepath.Join(t.TempDir(), "leaked.jsonl")
	if err := os.WriteFile(leaked, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = spidertrace("check", leaked)
	if code != 1 || strings.Count(stdout, "\n") != 1 || !strings.Contains(stdout, "probe-conservation") ||
		!strings.HasPrefix(stderr, "spidertrace: ") {
		t.Errorf("check on a trace missing a probe.returned: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestEveryRunsRequest: request IDs restart per run, so in a trace of two
// runs -req 1 shows both runs' request 1, each headed by its run, and slow
// says which run each request is from.
func TestEveryRunsRequest(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	for run, wall := range []time.Duration{5 * time.Millisecond, 9 * time.Millisecond} {
		sink.Emit(obs.RunStart(int64(run + 1)))
		sink.Emit(obs.ComposeStart(0, 0, 1, 2, 8))
		sink.Emit(obs.ComposeDone(wall, 0, 1, true, wall))
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "two-runs.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for cmd, want := range map[string]string{
		"waterfall": "run 1\nreq 1  wall 5ms  (ok)\n",
		"critical":  "run 1\nreq 1  critical path (2 steps, wall 5ms)\n",
	} {
		code, stdout, stderr := spidertrace(cmd, "-req", "1", path)
		second := strings.ReplaceAll(strings.ReplaceAll(want, "run 1", "run 2"), "5ms", "9ms")
		if code != 0 || stderr != "" || !strings.HasPrefix(stdout, want) || !strings.Contains(stdout, "\n"+second) {
			t.Errorf("%s -req 1: exit %d, stderr %q, stdout %q: want run 1's request 1, then run 2's", cmd, code, stderr, stdout)
		}
	}
	code, stdout, _ := spidertrace("slow", path)
	lines := strings.Split(stdout, "\n")
	if code != 0 || len(lines) < 4 || strings.Fields(lines[1])[0] != "run" ||
		!strings.HasPrefix(strings.Join(strings.Fields(lines[2]), " "), "2 1 ok 9.0ms") ||
		!strings.HasPrefix(strings.Join(strings.Fields(lines[3]), " "), "1 1 ok 5.0ms") {
		t.Errorf("slow: exit %d, stdout %q: want a run column, run 2's request first", code, stdout)
	}
}
