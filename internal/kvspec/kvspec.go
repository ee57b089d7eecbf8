// Package kvspec is the one tokenizer behind the repo's compact flag
// grammars — -faults (simnet.FaultSpec), -domains (federation.Spec) and
// -scenario (workload.Scenario): comma-separated key=value fields, keys in
// any order, each at most once. A grammar is a name, an example and its keys
// in canonical order; the schema supplies what each key's value means.
package kvspec

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Grammar names one flag language.
type Grammar struct {
	Name    string   // what error messages call it: "fault spec", "scenario"
	Example string   // shown when the spec is empty
	Keys    []string // the accepted keys, in canonical (String) order
}

// Parse splits s on commas, trims each field, and hands every key=value pair
// to set in field order, so the first bad field — malformed, repeated,
// unknown, or refused by set — is the one reported. Every error is prefixed
// with the grammar's name. The empty string is an error: "no spec" is
// expressed by not passing the flag at all.
func (g *Grammar) Parse(s string, set func(key, val string) error) error {
	if strings.TrimSpace(s) == "" {
		return fmt.Errorf("empty %s spec (want e.g. %q)", strings.TrimSuffix(g.Name, " spec"), g.Example)
	}
	seen := make(map[string]bool)
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok || key == "" || val == "" {
			return fmt.Errorf("%s field %q: want key=value", g.Name, field)
		}
		if seen[key] {
			return fmt.Errorf("%s key %q given twice", g.Name, key)
		}
		seen[key] = true
		if !slices.Contains(g.Keys, key) {
			last := len(g.Keys) - 1
			return fmt.Errorf("%s key %q: want %s, or %s", g.Name, key,
				strings.Join(g.Keys[:last], ", "), g.Keys[last])
		}
		if err := set(key, val); err != nil {
			return fmt.Errorf("%s %v", g.Name, err)
		}
	}
	return nil
}

// String renders the canonical form: the grammar's keys in their fixed order,
// each with the value the schema rendered for it, a key whose value is empty
// (zero) omitted. vals is indexed like Keys.
func (g *Grammar) String(vals ...string) string {
	var parts []string
	for i, v := range vals {
		if v != "" {
			parts = append(parts, g.Keys[i]+"="+v)
		}
	}
	return strings.Join(parts, ",")
}

// Float, Int and Dur render one value for String: "" for zero.
func Float(x float64) string {
	if x == 0 {
		return ""
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

func Int(n int64) string {
	if n == 0 {
		return ""
	}
	return strconv.FormatInt(n, 10)
}

func Dur(d time.Duration) string {
	if d == 0 {
		return ""
	}
	return d.String()
}

// ParseInt parses a decimal integer value.
func ParseInt(key, val string) (int64, error) {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: %v", key, val, err)
	}
	return n, nil
}

// ParseProb parses a probability in [0, 1].
func ParseProb(key, val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: %v", key, val, err)
	}
	if !(p >= 0 && p <= 1) { // NaN included: it has no canonical round trip
		return 0, fmt.Errorf("%s=%v: probability outside [0,1]", key, p)
	}
	return p, nil
}

// ParseDur parses a non-negative duration.
func ParseDur(key, val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: %v", key, val, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("%s=%v: negative", key, d)
	}
	return d, nil
}

// ParseWindow parses the "<at>+<dur>" activation window: a non-negative
// start and a positive length.
func ParseWindow(s string) (at, dur time.Duration, err error) {
	atStr, durStr, ok := strings.Cut(s, "+")
	if !ok {
		return 0, 0, fmt.Errorf("bad window %q: want at+dur", s)
	}
	at, err = time.ParseDuration(atStr)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window start: %v", err)
	}
	if at < 0 {
		return 0, 0, fmt.Errorf("negative window start %v", at)
	}
	dur, err = time.ParseDuration(durStr)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window length: %v", err)
	}
	if dur <= 0 {
		return 0, 0, fmt.Errorf("window length %v must be positive", dur)
	}
	return at, dur, nil
}
