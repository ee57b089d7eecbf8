package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		{"slow -k -1", "-k -1", []string{"slow", "-k", "-1", goldenTrace}},
		{"critical -k 0", "-k 0", []string{"critical", "-k", "0", goldenTrace}},
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
