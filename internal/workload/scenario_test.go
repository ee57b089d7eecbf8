package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestParseScenarioTable(t *testing.T) {
	cases := []struct {
		in   string
		want Scenario
	}{
		{"zipf=1.2", Scenario{Zipf: 1.2}},
		{"zipf=0", Scenario{}},
		{"diurnal=60s@0.5", Scenario{DiurnalPeriod: time.Minute, DiurnalAmp: 0.5}},
		{"flash=fn3:10@30s+20s", Scenario{FlashFn: "fn3", FlashMult: 10, FlashAt: 30 * time.Second, FlashDur: 20 * time.Second}},
		{"flash=enc:1.5@0s+1h", Scenario{FlashFn: "enc", FlashMult: 1.5, FlashDur: time.Hour}},
		{"churn=0.02@30s+20s", Scenario{ChurnRate: 0.02, ChurnAt: 30 * time.Second, ChurnDur: 20 * time.Second}},
		{"seed=-7", Scenario{Seed: -7}},
		{
			"zipf=1.2,diurnal=60s@0.5,flash=fn3:10@30s+20s,churn=0.02@30s+20s,seed=3",
			Scenario{
				Zipf: 1.2, DiurnalPeriod: time.Minute, DiurnalAmp: 0.5,
				FlashFn: "fn3", FlashMult: 10, FlashAt: 30 * time.Second, FlashDur: 20 * time.Second,
				ChurnRate: 0.02, ChurnAt: 30 * time.Second, ChurnDur: 20 * time.Second,
				Seed: 3,
			},
		},
	}
	for _, c := range cases {
		got, err := ParseScenario(c.in)
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", c.in, err)
			continue
		}
		if *got != c.want {
			t.Errorf("ParseScenario(%q) = %+v, want %+v", c.in, *got, c.want)
		}
	}
}

// TestParseScenarioErrors covers the scenario schema's own value rules; the
// tokenizer's (empty spec, key=value shape, duplicate and unknown keys, key
// order) are pinned for every grammar by kvspec's TestTokenizerConformance.
func TestParseScenarioErrors(t *testing.T) {
	for _, in := range []string{
		"zipf=-1",
		"zipf=NaN",
		"diurnal=60s",          // missing amplitude
		"diurnal=60s@0",        // zero amplitude
		"diurnal=60s@1.5",      // amplitude > 1
		"diurnal=0s@0.5",       // zero period
		"flash=fn3",            // missing mult
		"flash=fn3:10",         // missing window
		"flash=fn3:1@30s+20s",  // mult must be > 1
		"flash=fn3:10@30s",     // missing +dur
		"flash=fn3:10@30s+0s",  // zero window length
		"flash=fn3:10@-1s+20s", // negative start
		"flash=:10@30s+20s",    // empty name
		"flash=a@b:10@30s+20s", // reserved char in name
		"churn=0@30s+20s",      // zero rate
		"churn=1.5@30s+20s",    // rate > 1
		"churn=0.02@30s",       // missing +dur
		"seed=xyz",
	} {
		if scn, err := ParseScenario(in); err == nil {
			t.Errorf("ParseScenario(%q) accepted: %+v", in, scn)
		}
	}
}

func TestScenarioStringCanonical(t *testing.T) {
	in := "seed=3,churn=0.02@30s+20s,flash=fn3:10@1m0s+20s,zipf=1.2"
	scn, err := ParseScenario(in)
	if err != nil {
		t.Fatal(err)
	}
	want := "zipf=1.2,flash=fn3:10@1m0s+20s,churn=0.02@30s+20s,seed=3"
	if got := scn.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	back, err := ParseScenario(scn.String())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *scn {
		t.Fatalf("round trip %+v -> %+v", *scn, *back)
	}
}

func TestScenarioWindows(t *testing.T) {
	scn := Scenario{
		FlashFn: "fn1", FlashMult: 10, FlashAt: 10 * time.Second, FlashDur: 5 * time.Second,
		ChurnRate: 0.1, ChurnAt: 20 * time.Second, ChurnDur: 5 * time.Second,
	}
	for _, c := range []struct {
		at          time.Duration
		flash, chrn bool
	}{
		{0, false, false},
		{10 * time.Second, true, false},
		{14 * time.Second, true, false},
		{15 * time.Second, false, false},
		{20 * time.Second, false, true},
		{24 * time.Second, false, true},
		{25 * time.Second, false, false},
	} {
		if got := scn.FlashActive(c.at); got != c.flash {
			t.Errorf("FlashActive(%v) = %v", c.at, got)
		}
		if got := scn.ChurnActive(c.at); got != c.chrn {
			t.Errorf("ChurnActive(%v) = %v", c.at, got)
		}
	}
}

func TestWeightsAt(t *testing.T) {
	cat := catalog(4)
	// Inert scenario: nil weights (the legacy uniform fast path).
	if w := (&Scenario{}).WeightsAt(0, cat); w != nil {
		t.Fatalf("inert scenario weights = %v, want nil", w)
	}
	// Flash on an unknown function is ignored.
	scn := &Scenario{FlashFn: "nope", FlashMult: 10, FlashDur: time.Minute}
	if w := scn.WeightsAt(0, cat); w != nil {
		t.Fatalf("unknown flash fn weights = %v, want nil", w)
	}
	// Zipf alone: strictly decreasing in rank.
	scn = &Scenario{Zipf: 1.0}
	w := scn.WeightsAt(0, cat)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Fatalf("zipf weights not decreasing: %v", w)
		}
	}
	// Flash boosts exactly the named function inside its window.
	scn = &Scenario{Zipf: 1.0, FlashFn: cat[2], FlashMult: 10, FlashAt: 5 * time.Second, FlashDur: time.Second}
	base := scn.WeightsAt(0, cat)
	during := scn.WeightsAt(5*time.Second, cat)
	for i := range base {
		want := base[i]
		if i == 2 {
			want *= 10
		}
		if math.Abs(during[i]-want) > 1e-12 {
			t.Fatalf("flash weights[%d] = %v, want %v (base %v)", i, during[i], want, base[i])
		}
	}
}

func TestRateMult(t *testing.T) {
	cat := catalog(4)
	if m := (&Scenario{}).RateMult(17*time.Second, cat); m != 1 {
		t.Fatalf("inert RateMult = %v", m)
	}
	// Diurnal peaks at period/4 with 1+amp and troughs at 3*period/4.
	scn := &Scenario{DiurnalPeriod: 40 * time.Second, DiurnalAmp: 0.5}
	if m := scn.RateMult(10*time.Second, cat); math.Abs(m-1.5) > 1e-9 {
		t.Fatalf("diurnal peak = %v, want 1.5", m)
	}
	if m := scn.RateMult(30*time.Second, cat); math.Abs(m-0.5) > 1e-9 {
		t.Fatalf("diurnal trough = %v, want 0.5", m)
	}
	// Flash surge: uniform base share 1/4, mult 9 -> 1 + 8/4 = 3.
	scn = &Scenario{FlashFn: cat[0], FlashMult: 9, FlashAt: 0, FlashDur: time.Second}
	if m := scn.RateMult(0, cat); math.Abs(m-3) > 1e-9 {
		t.Fatalf("flash surge = %v, want 3", m)
	}
	if m := scn.RateMult(2*time.Second, cat); m != 1 {
		t.Fatalf("post-flash mult = %v, want 1", m)
	}
}

// TestZipfSamplerExponent is the Zipf property test: the empirical
// rank-frequency curve of many single draws must recover the configured
// exponent within tolerance (log-log least-squares fit over the head of
// the distribution, where counts are large enough to be stable).
func TestZipfSamplerExponent(t *testing.T) {
	const (
		n     = 50
		draws = 200000
		s     = 1.1
		tol   = 0.1
	)
	w := ZipfWeights(n, s)
	rng := rand.New(rand.NewSource(11))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[weightedDistinct(rng, w, n, 1)[0]]++
	}
	// Weighted draws keep rank order: counts must be non-increasing over
	// the head ranks (ties possible in the tail where counts are small).
	for i := 1; i < 10; i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("rank %d drawn more often than rank %d: %v", i, i-1, counts[:10])
		}
	}
	// Fit log(count) = a - s*log(rank) over the 20 head ranks.
	var sx, sy, sxx, sxy float64
	const head = 20
	for i := 0; i < head; i++ {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(counts[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	slope := (float64(head)*sxy - sx*sy) / (float64(head)*sxx - sx*sx)
	if got := -slope; math.Abs(got-s) > tol {
		t.Fatalf("empirical exponent %.3f, want %.2f +/- %.2f (head counts %v)", got, s, tol, counts[:head])
	}
}

// TestZipfSamplerDeterministic pins byte-identical draws for the same seed:
// the stress experiment's worker-count determinism rests on every cell
// seeding its own generator, so the sampler itself must be a pure function
// of (seed, weights).
func TestZipfSamplerDeterministic(t *testing.T) {
	w := ZipfWeights(30, 1.3)
	draw := func() [][]int {
		rng := rand.New(rand.NewSource(42))
		var out [][]int
		for i := 0; i < 500; i++ {
			out = append(out, weightedDistinct(rng, w, 30, 3))
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed draws differ")
	}
}

func TestWeightedDistinctProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := []float64{0, 3, 1, 0, 2}
	for trial := 0; trial < 200; trial++ {
		got := weightedDistinct(rng, w, 5, 5)
		seen := make(map[int]bool)
		for _, i := range got {
			if i < 0 || i >= 5 || seen[i] {
				t.Fatalf("invalid draw %v", got)
			}
			seen[i] = true
		}
		// Zero-weight indices must come out after all positive ones.
		lastPos := -1
		for pos, i := range got {
			if w[i] > 0 {
				lastPos = pos
			}
		}
		if lastPos > 2 {
			t.Fatalf("zero-weight index drawn before positive weights: %v", got)
		}
	}
	// Nil weights: the legacy uniform path must exactly reproduce rng.Perm.
	a := rand.New(rand.NewSource(9))
	b := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		got := weightedDistinct(a, nil, 10, 4)
		want := b.Perm(10)[:4]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("uniform path diverged from rng.Perm: %v vs %v", got, want)
		}
	}
}

// TestPickFunctionsHonorsPopularity: a scenario's Zipf popularity skews
// function choice, rank 0 dominating rank 9 by roughly the configured ratio
// over many requests, instead of the generator sampling uniformly.
func TestPickFunctionsHonorsPopularity(t *testing.T) {
	cat := catalog(10)
	g := NewGenerator(Config{
		Catalog: cat, Peers: 20, MinFuncs: 1, MaxFuncs: 1,
		Scenario: &Scenario{Zipf: 1.5},
	}, rand.New(rand.NewSource(3)))
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[g.Next().FGraph.Function(0)]++
	}
	if counts[cat[0]] <= 5*counts[cat[9]] {
		t.Fatalf("zipf popularity barely skews choice: head %d vs tail %d", counts[cat[0]], counts[cat[9]])
	}
}

// TestScenarioShapesGenerator checks the generator consumes the scenario's
// time-varying weights: during the flash window the flash function appears
// in nearly every request, before it only at its base rate.
func TestScenarioShapesGenerator(t *testing.T) {
	cat := catalog(10)
	scn := &Scenario{Zipf: 1.0, FlashFn: cat[7], FlashMult: 1000, FlashAt: 30 * time.Second, FlashDur: 10 * time.Second}
	g := NewGenerator(Config{Catalog: cat, Peers: 20, MinFuncs: 1, MaxFuncs: 1, Scenario: scn},
		rand.New(rand.NewSource(4)))
	before, during := 0, 0
	for i := 0; i < 400; i++ {
		if g.NextAt(0).FGraph.Function(0) == cat[7] {
			before++
		}
		if g.NextAt(31*time.Second).FGraph.Function(0) == cat[7] {
			during++
		}
	}
	if during < 350 {
		t.Fatalf("flash window picked fn only %d/400 times", during)
	}
	if before > 100 {
		t.Fatalf("outside flash window fn picked %d/400 times (zipf rank 8 should be rare)", before)
	}
}

// TestInertScenarioPreservesStream pins the compatibility contract: a
// scenario with uniform popularity and no active flash leaves the request
// stream byte-identical to a generator with no scenario at all.
func TestInertScenarioPreservesStream(t *testing.T) {
	cat := catalog(8)
	plain := NewGenerator(Config{Catalog: cat, Peers: 20}, rand.New(rand.NewSource(7)))
	inert := NewGenerator(Config{Catalog: cat, Peers: 20, Scenario: &Scenario{ChurnRate: 0.5, ChurnDur: time.Minute}},
		rand.New(rand.NewSource(7)))
	for i := 0; i < 100; i++ {
		a, b := plain.Next(), inert.NextAt(time.Duration(i)*time.Second)
		if a.ID != b.ID || a.Source != b.Source || a.Dest != b.Dest ||
			a.FGraph.String() != b.FGraph.String() || a.Bandwidth != b.Bandwidth {
			t.Fatalf("request %d differs under inert scenario", i)
		}
	}
}

// FuzzStressSpec mirrors the FaultSpec fuzz pattern: every accepted spec is
// internally valid and round-trips parse -> String -> parse identically.
func FuzzStressSpec(f *testing.F) {
	for _, seed := range []string{
		"zipf=1.2",
		"zipf=1.2,diurnal=60s@0.5,flash=fn3:10@30s+20s,churn=0.02@30s+20s,seed=3",
		"diurnal=1h2m3s@0.25",
		"flash=enc:1.5@0s+1h",
		"churn=1@0s+1ns",
		"seed=-9223372036854775808",
		"zipf=0.5,zipf=0.7",
		"flash=a@b:2@1s+1s",
		"bogus=1",
		"=,=,=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		scn, err := ParseScenario(in)
		if err != nil {
			return
		}
		if scn.Zipf < 0 || math.IsNaN(scn.Zipf) || math.IsInf(scn.Zipf, 0) {
			t.Fatalf("accepted invalid zipf exponent: %+v", scn)
		}
		if scn.DiurnalPeriod < 0 || scn.DiurnalAmp < 0 || scn.DiurnalAmp > 1 {
			t.Fatalf("accepted invalid diurnal curve: %+v", scn)
		}
		if scn.FlashFn != "" && (scn.FlashMult <= 1 || scn.FlashDur <= 0 || scn.FlashAt < 0) {
			t.Fatalf("accepted invalid flash window: %+v", scn)
		}
		if scn.ChurnRate < 0 || scn.ChurnRate > 1 || (scn.ChurnRate > 0 && scn.ChurnDur <= 0) {
			t.Fatalf("accepted invalid churn storm: %+v", scn)
		}
		if *scn == (Scenario{}) {
			return // all-zero spec (e.g. "zipf=0") has no canonical form
		}
		back, err := ParseScenario(scn.String())
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", scn.String(), err)
		}
		if *back != *scn {
			t.Fatalf("round trip %+v -> %q -> %+v", scn, scn.String(), back)
		}
	})
}
