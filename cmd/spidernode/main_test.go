package main

import (
	"bytes"
	"strings"
	"testing"
)

// spidernode runs the command in-process and returns its exit code and both
// streams.
func spidernode(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlagMistakesExitWithOneLine: every bad command line exits non-zero with
// one line naming the flag at fault before any peer goroutine starts — never
// a panic, and never a Compose blocked on a peer that does not exist (the
// test binary's -timeout is what catches that one coming back).
func TestFlagMistakesExitWithOneLine(t *testing.T) {
	for _, c := range []struct{ args, names string }{
		{"-hosts 12 -requests 7", "requests"},
		{"-requests -1", "requests"},
		{"-functions 7", "functions"},
		{"-functions 0", "functions"},
		{"-frames -1", "frames"},
		{"-hosts 1", "hosts"},
		{"-speedup -1", "speedup"},
		{"-speedup 0", "speedup"},
		{"-budget 0", "budget"},
		{"-hold -1s", "hold"},
		{"-domains domains=x", "domains"},
		{"-domains gateways=2", "domains"},
		{"-hosts 6 -domains domains=4,gateways=2", "domains"},
		{"-hosts 12 extra -seed 5", "extra"}, // a word stops flag parsing: -seed would be lost
	} {
		code, stdout, stderr := spidernode(strings.Fields(c.args)...)
		if code == 0 || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q; want a refusal before anything runs", c.args, code, stdout)
		}
		msg := strings.TrimSpace(stderr)
		if strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine ") || !strings.Contains(msg, c.names) {
			t.Errorf("%s: stderr %q; want one line naming %q", c.args, stderr, c.names)
		}
	}
	if code, _, stderr := spidernode("-nosuchflag"); code != 2 || !strings.Contains(stderr, "nosuchflag") {
		t.Errorf("-nosuchflag: exit %d, stderr %q; want the flag package's exit 2", code, stderr)
	}
}

// TestSmallLiveRun: a twelve-host deployment composes one request and streams
// through it, and the plan preview prints without starting a deployment.
func TestSmallLiveRun(t *testing.T) {
	code, stdout, stderr := spidernode(strings.Fields("-hosts 12 -functions 2 -requests 1 -frames 2 -speedup 200")...)
	if code != 0 || !strings.Contains(stdout, "live deployment: 12 hosts") || !strings.Contains(stdout, "request 0: ") {
		t.Errorf("live run: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	code, stdout, stderr = spidernode(strings.Fields("-hosts 30 -domains domains=3,gateways=2")...)
	if code != 0 || !strings.Contains(stdout, "domain 2: peers 20..29 (10 members)") {
		t.Errorf("plan preview: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}
