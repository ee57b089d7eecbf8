package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// spiderbench runs the command in-process and returns its exit code and both
// streams.
func spiderbench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRejectsFlagsTheFigureDoesNotTake: a flag the named figure would ignore
// exits 2 with one line naming the flag and the figure, before anything runs.
func TestRejectsFlagsTheFigureDoesNotTake(t *testing.T) {
	for _, c := range []struct{ fig, flag, value string }{
		{"stress", "-paper", ""},
		{"scale100k", "-paper", ""},
		{"scale1m", "-paper", ""},
		{"8", "-faults", "loss=0.1"},
		{"11", "-faults", "loss=0.1"},
		{"scale", "-faults", "loss=0.1"},
		{"stress", "-faults", "loss=0.1"},
		{"overhead", "-faults", "loss=0.1"},
		{"federate", "-faults", "loss=0.1"},
		{"scale100k", "-faults", "loss=0.1"},
		{"scale1m", "-faults", "loss=0.1"},
		{"10", "-stats", ""},
		{"scale100k", "-stats", ""},
		{"scale1m", "-stats", ""},
		{"10", "-trace", "unused.jsonl"},
		{"scale100k", "-trace", "unused.jsonl"},
		{"scale1m", "-trace", "unused.jsonl"},
	} {
		args := []string{"-fig", c.fig, c.flag}
		if c.value != "" {
			args = append(args, c.value)
		}
		code, stdout, stderr := spiderbench(args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and nothing run", args, code, stdout)
		}
		msg := strings.TrimSpace(stderr)
		if strings.Contains(msg, "\n") || !strings.Contains(msg, c.flag) || !strings.Contains(msg, "figure "+c.fig) {
			t.Errorf("%v: stderr %q; want one line naming %s and figure %s", args, stderr, c.flag, c.fig)
		}
	}
}

// TestFigureNamesComeFromTheRegistry: every registry name is a valid -fig
// value (probed with an unparsable -faults, which fails after figure
// selection and before any run), and an unknown name lists exactly the
// registry's names.
func TestFigureNamesComeFromTheRegistry(t *testing.T) {
	names := []string{"all"}
	for _, f := range experiment.Figures {
		names = append(names, f.Name)
	}
	for _, name := range names {
		code, _, stderr := spiderbench("-fig", name, "-csv", "/nonexistent", "-faults", "bogus")
		if code != 2 || !strings.HasPrefix(stderr, "faults:") {
			t.Errorf("-fig %s: exit %d, stderr %q; want the figure accepted and the fault spec refused", name, code, stderr)
		}
	}
	code, _, stderr := spiderbench("-fig", "nope")
	if code != 2 {
		t.Errorf("-fig nope: exit %d, want 2", code)
	}
	for _, name := range names {
		if !strings.Contains(stderr, name) {
			t.Errorf("-fig nope: message %q does not list %q", stderr, name)
		}
	}
}

// TestRunsAFigure drives one cheap figure end to end through run.
func TestRunsAFigure(t *testing.T) {
	code, stdout, stderr := spiderbench("-fig", "overhead", "-stats")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"# Overhead:", "ratio (centralized/spidernet)", "# per-layer counters"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}
