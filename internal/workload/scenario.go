package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/kvspec"
)

// Scenario is the declarative stress-workload spec accepted by the
// -scenario flag and the stress experiment:
//
//	zipf=1.2,diurnal=60s@0.5,flash=fn3:10@30s+20s,churn=0.02@30s+20s,seed=3
//
// Keys may appear in any order, each at most once:
//
//   - zipf=s          — Zipf service popularity with exponent s > 0: the
//     i-th catalogue function is drawn with weight (i+1)^-s. 0 (or the key
//     absent) keeps the uniform draw.
//   - diurnal=p@a     — sinusoidal offered-load curve with period p and
//     amplitude a in [0, 1]: the arrival rate at time t is multiplied by
//     1 + a·sin(2πt/p).
//   - flash=fn:m@at+d — flash crowd: starting at <at> and lasting <d>, the
//     named function's popularity weight is multiplied by m (> 1), and the
//     offered load surges by the same factor applied to that function's
//     base traffic share.
//   - churn=r@at+d    — churn storm: during [at, at+d), the fraction r of
//     the peers fails per time unit (failed peers recover after the
//     consumer's downtime window).
//   - seed=n          — isolates the scenario RNG stream (churn victim
//     selection), so changing the scenario seed never perturbs the
//     workload or cluster streams.
//
// String renders the canonical form (fixed key order, zero-valued keys
// omitted); ParseScenario(s.String()) reproduces s for any spec with at
// least one non-zero field.
type Scenario struct {
	Zipf float64 // popularity exponent; 0 = uniform

	DiurnalPeriod time.Duration // offered-load sine period; 0 = flat
	DiurnalAmp    float64       // offered-load sine amplitude in [0, 1]

	FlashFn   string        // flash-crowd function name; "" = no flash
	FlashMult float64       // popularity multiplier during the window
	FlashAt   time.Duration // window start
	FlashDur  time.Duration // window length

	ChurnRate float64       // fraction of peers failing per time unit
	ChurnAt   time.Duration // storm start
	ChurnDur  time.Duration // storm length

	Seed int64 // scenario RNG stream (churn victims)
}

var scenarioGrammar = kvspec.Grammar{
	Name:    "scenario",
	Example: "zipf=1.2,flash=fn3:10@30s+20s,churn=0.02@30s+20s",
	Keys:    []string{"zipf", "diurnal", "flash", "churn", "seed"},
}

// ParseScenario parses the -scenario grammar. The empty string is an
// error — "no scenario" is expressed by not passing the flag at all.
func ParseScenario(s string) (*Scenario, error) {
	scn := &Scenario{}
	err := scenarioGrammar.Parse(s, func(key, val string) error {
		// bad reports a malformed value of this key.
		bad := func(format string, args ...any) error {
			return fmt.Errorf("%s=%q: "+format, append([]any{key, val}, args...)...)
		}
		switch key {
		case "zipf":
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return bad("%v", err)
			}
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("zipf=%v: exponent must be finite and >= 0", x)
			}
			scn.Zipf = x
		case "diurnal":
			pStr, aStr, hasAmp := strings.Cut(val, "@")
			if !hasAmp {
				return bad("want period@amplitude")
			}
			p, err := time.ParseDuration(pStr)
			if err != nil {
				return bad("bad period: %v", err)
			}
			if p <= 0 {
				return bad("period must be positive")
			}
			a, err := strconv.ParseFloat(aStr, 64)
			if err != nil {
				return bad("bad amplitude: %v", err)
			}
			if a <= 0 || a > 1 || math.IsNaN(a) {
				return bad("amplitude outside (0,1]")
			}
			scn.DiurnalPeriod, scn.DiurnalAmp = p, a
		case "flash":
			fn, rest, hasMult := strings.Cut(val, ":")
			if !hasMult || fn == "" {
				return bad("want fn:mult@at+dur")
			}
			if strings.ContainsAny(fn, "=@+,") {
				return bad("function name contains reserved characters")
			}
			mStr, window, hasAt := strings.Cut(rest, "@")
			if !hasAt {
				return bad("want fn:mult@at+dur")
			}
			m, err := strconv.ParseFloat(mStr, 64)
			if err != nil {
				return bad("bad multiplier: %v", err)
			}
			if m <= 1 || math.IsNaN(m) || math.IsInf(m, 0) {
				return bad("multiplier must be finite and > 1")
			}
			at, dur, err := kvspec.ParseWindow(window)
			if err != nil {
				return bad("%v", err)
			}
			scn.FlashFn, scn.FlashMult, scn.FlashAt, scn.FlashDur = fn, m, at, dur
		case "churn":
			rStr, window, hasAt := strings.Cut(val, "@")
			if !hasAt {
				return bad("want rate@at+dur")
			}
			r, err := strconv.ParseFloat(rStr, 64)
			if err != nil {
				return bad("bad rate: %v", err)
			}
			if r <= 0 || r > 1 || math.IsNaN(r) {
				return bad("rate outside (0,1]")
			}
			at, dur, err := kvspec.ParseWindow(window)
			if err != nil {
				return bad("%v", err)
			}
			scn.ChurnRate, scn.ChurnAt, scn.ChurnDur = r, at, dur
		case "seed":
			n, err := kvspec.ParseInt(key, val)
			scn.Seed = n
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scn, nil
}

// String renders the canonical spec: fixed key order, zero-valued keys
// omitted.
func (s *Scenario) String() string {
	var diurnal, flash, churn string
	if s.DiurnalPeriod != 0 {
		diurnal = s.DiurnalPeriod.String() + "@" + strconv.FormatFloat(s.DiurnalAmp, 'g', -1, 64)
	}
	if s.FlashFn != "" {
		flash = s.FlashFn + ":" + strconv.FormatFloat(s.FlashMult, 'g', -1, 64) + "@" +
			s.FlashAt.String() + "+" + s.FlashDur.String()
	}
	if s.ChurnRate != 0 {
		churn = strconv.FormatFloat(s.ChurnRate, 'g', -1, 64) + "@" + s.ChurnAt.String() + "+" + s.ChurnDur.String()
	}
	return scenarioGrammar.String(kvspec.Float(s.Zipf), diurnal, flash, churn, kvspec.Int(s.Seed))
}

// FlashActive reports whether the flash-crowd window covers time t.
func (s *Scenario) FlashActive(t time.Duration) bool {
	return s.FlashFn != "" && t >= s.FlashAt && t < s.FlashAt+s.FlashDur
}

// ChurnActive reports whether the churn-storm window covers time t.
func (s *Scenario) ChurnActive(t time.Duration) bool {
	return s.ChurnRate > 0 && t >= s.ChurnAt && t < s.ChurnAt+s.ChurnDur
}

// ZipfWeights returns the unnormalized Zipf popularity weights over n
// ranks: w[i] = (i+1)^-s, the classic rank-frequency law. s = 0 yields the
// uniform distribution (all weights 1).
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return w
}

// WeightsAt returns the popularity weights over the catalogue at time t:
// the Zipf base curve with the flash-crowd boost applied inside its window.
// A scenario that is inert at t (uniform popularity, no active flash)
// returns nil, which the generator treats as the legacy uniform draw — so
// an all-defaults scenario reproduces pre-scenario streams byte for byte.
func (s *Scenario) WeightsAt(t time.Duration, catalog []string) []float64 {
	flash := s.FlashActive(t) && indexOf(catalog, s.FlashFn) >= 0
	if s.Zipf == 0 && !flash {
		return nil
	}
	w := ZipfWeights(len(catalog), s.Zipf)
	if flash {
		w[indexOf(catalog, s.FlashFn)] *= s.FlashMult
	}
	return w
}

// RateMult returns the offered-load multiplier at time t: the diurnal sine
// times the flash surge. The flash surge scales total load by the factor
// the flash function's own traffic grew: with base share p and multiplier
// m, the load becomes 1 + (m-1)·p of baseline — the crowd piles onto one
// function, everyone else's traffic is unchanged.
func (s *Scenario) RateMult(t time.Duration, catalog []string) float64 {
	mult := 1.0
	if s.DiurnalPeriod > 0 {
		mult *= 1 + s.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(s.DiurnalPeriod))
	}
	if s.FlashActive(t) {
		if i := indexOf(catalog, s.FlashFn); i >= 0 {
			base := ZipfWeights(len(catalog), s.Zipf)
			var total float64
			for _, w := range base {
				total += w
			}
			share := base[i] / total
			mult *= 1 + (s.FlashMult-1)*share
		}
	}
	if mult < 0 {
		mult = 0
	}
	return mult
}

// MaxRateMult returns the peak of RateMult over all times: the diurnal
// crest times the flash surge. Thinning samplers divide by it to turn the
// rate curve into an acceptance probability.
func (s *Scenario) MaxRateMult(catalog []string) float64 {
	mult := 1.0
	if s.DiurnalPeriod > 0 {
		mult *= 1 + s.DiurnalAmp
	}
	if s.FlashFn != "" {
		if i := indexOf(catalog, s.FlashFn); i >= 0 {
			base := ZipfWeights(len(catalog), s.Zipf)
			var total float64
			for _, w := range base {
				total += w
			}
			mult *= 1 + (s.FlashMult-1)*base[i]/total
		}
	}
	return mult
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// weightedDistinct is the single weighted sampler every function choice
// routes through: it draws k distinct indices from [0, len(w)), each draw
// proportional to its weight among the not-yet-taken indices (successive
// renormalization, O(n) per draw, no rejection loop). A nil weight slice
// is the uniform distribution and reproduces the legacy rng.Perm draw bit
// for bit, so pre-popularity seeds keep their exact streams.
func weightedDistinct(rng *rand.Rand, w []float64, n, k int) []int {
	if w == nil {
		return rng.Perm(n)[:k]
	}
	if len(w) != n {
		panic(fmt.Sprintf("workload: %d popularity weights for %d functions", len(w), n))
	}
	taken := make([]bool, n)
	out := make([]int, 0, k)
	remaining := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			panic(fmt.Sprintf("workload: invalid popularity weight %v", x))
		}
		remaining += x
	}
	for len(out) < k {
		var idx int
		if remaining <= 0 {
			// All remaining weight is zero: fall back to the first untaken
			// index, keeping the draw total and deterministic.
			for idx = 0; taken[idx]; idx++ {
			}
		} else {
			target := rng.Float64() * remaining
			acc := 0.0
			idx = -1
			for i, x := range w {
				if taken[i] {
					continue
				}
				acc += x
				if target < acc {
					idx = i
					break
				}
			}
			if idx < 0 { // float underflow at the tail: last untaken index
				for i := n - 1; i >= 0; i-- {
					if !taken[i] {
						idx = i
						break
					}
				}
			}
		}
		taken[idx] = true
		remaining -= w[idx]
		out = append(out, idx)
	}
	return out
}
