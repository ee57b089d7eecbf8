package simnet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/p2p"
)

func TestParseFaultSpec(t *testing.T) {
	cases := []struct {
		in   string
		want FaultSpec
	}{
		{"loss=0.05", FaultSpec{Loss: 0.05}},
		{"dup=1", FaultSpec{Dup: 1}},
		{"jitter=20ms", FaultSpec{Jitter: 20 * time.Millisecond}},
		{"partition=10s", FaultSpec{PartDur: 10 * time.Second}},
		{"partition=10s@30s", FaultSpec{PartDur: 10 * time.Second, PartAt: 30 * time.Second}},
		{"seed=-3", FaultSpec{Seed: -3}},
		{
			"loss=0.05,dup=0.01,jitter=20ms,partition=10s@30s,seed=3",
			FaultSpec{
				Loss: 0.05, Dup: 0.01, Jitter: 20 * time.Millisecond,
				PartDur: 10 * time.Second, PartAt: 30 * time.Second, Seed: 3,
			},
		},
	}
	for _, c := range cases {
		got, err := ParseFaultSpec(c.in)
		if err != nil {
			t.Errorf("ParseFaultSpec(%q): %v", c.in, err)
			continue
		}
		if *got != c.want {
			t.Errorf("ParseFaultSpec(%q)=%+v, want %+v", c.in, *got, c.want)
		}
	}
}

// TestParseFaultSpecErrors covers the fault schema's own value rules; the
// tokenizer's (empty spec, key=value shape, duplicate and unknown keys) are
// pinned for every grammar by kvspec's TestTokenizerConformance.
func TestParseFaultSpecErrors(t *testing.T) {
	cases := []struct {
		in      string
		errPart string // the message must mention this
	}{
		{"loss=abc", "loss"},
		{"loss=NaN", "outside [0,1]"},
		{"loss=1.5", "outside [0,1]"},
		{"dup=-0.1", "outside [0,1]"},
		{"jitter=5", "jitter"}, // bare number: not a duration
		{"jitter=-5ms", "negative"},
		{"partition=bogus", "bad duration"},
		{"partition=0s", "must be positive"},
		{"partition=10s@nope", "bad activation time"},
		{"partition=10s@-1s", "negative activation time"},
		{"seed=1.5", "seed"},
	}
	for _, c := range cases {
		_, err := ParseFaultSpec(c.in)
		if err == nil {
			t.Errorf("ParseFaultSpec(%q): want error, got nil", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("ParseFaultSpec(%q) error %q: want mention of %q", c.in, err, c.errPart)
		}
	}
}

func TestFaultSpecStringRoundTrip(t *testing.T) {
	specs := []FaultSpec{
		{Loss: 0.05},
		{Loss: 0.2, Dup: 0.01, Jitter: 20 * time.Millisecond},
		{PartDur: 10 * time.Second, PartAt: 30 * time.Second, Seed: 7},
		{Loss: 0.5, Dup: 1, Jitter: time.Second, PartDur: time.Minute, PartAt: time.Millisecond, Seed: -12},
	}
	for _, s := range specs {
		s := s
		str := s.String()
		back, err := ParseFaultSpec(str)
		if err != nil {
			t.Errorf("Parse(String()=%q): %v", str, err)
			continue
		}
		if *back != s {
			t.Errorf("round trip %+v -> %q -> %+v", s, str, *back)
		}
	}
}

func TestFaultSpecPlan(t *testing.T) {
	spec := FaultSpec{
		Loss: 0.1, Dup: 0.2, Jitter: 3 * time.Millisecond,
		PartDur: 10 * time.Second, PartAt: 30 * time.Second, Seed: 5,
	}
	peers := []p2p.NodeID{0, 1, 2, 3, 4}
	plan := spec.Plan(peers)
	if plan.Seed != 5 {
		t.Fatalf("Seed=%d", plan.Seed)
	}
	want := LinkFaults{Loss: 0.1, Dup: 0.2, Jitter: 3 * time.Millisecond}
	if plan.Default != want {
		t.Fatalf("Default=%+v, want %+v", plan.Default, want)
	}
	if len(plan.Partitions) != 1 {
		t.Fatalf("Partitions=%v", plan.Partitions)
	}
	p := plan.Partitions[0]
	if len(p.A) != 2 || len(p.B) != 3 {
		t.Fatalf("partition sides %v | %v, want 2|3 split", p.A, p.B)
	}
	if p.From != 30*time.Second || p.Until != 40*time.Second {
		t.Fatalf("window [%v, %v)", p.From, p.Until)
	}

	// Without a partition duration — or with too few peers to split — no
	// partition is emitted.
	if got := (&FaultSpec{Loss: 0.1}).Plan(peers); len(got.Partitions) != 0 {
		t.Fatalf("unexpected partition: %v", got.Partitions)
	}
	if got := spec.Plan(peers[:1]); len(got.Partitions) != 0 {
		t.Fatalf("partition over one peer: %v", got.Partitions)
	}
}

func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"loss=0.05",
		"loss=0.05,dup=0.01,jitter=20ms,partition=10s@30s,seed=3",
		"partition=10s@30s",
		"jitter=1h2m3s",
		"seed=-9223372036854775808",
		"loss=0.1,loss=0.2",
		"bogus=1",
		"=,=,=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseFaultSpec(in)
		if err != nil {
			return
		}
		// Every accepted spec is internally valid and round-trips through
		// its canonical String form.
		if spec.Loss < 0 || spec.Loss > 1 || spec.Dup < 0 || spec.Dup > 1 {
			t.Fatalf("accepted out-of-range probability: %+v", spec)
		}
		if spec.Jitter < 0 || spec.PartDur < 0 || spec.PartAt < 0 {
			t.Fatalf("accepted negative duration: %+v", spec)
		}
		if *spec == (FaultSpec{}) {
			return // all-zero spec (e.g. "loss=0") has no canonical form
		}
		back, err := ParseFaultSpec(spec.String())
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", spec.String(), err)
		}
		if *back != *spec {
			t.Fatalf("round trip %+v -> %q -> %+v", spec, spec.String(), back)
		}
	})
}
