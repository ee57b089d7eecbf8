package kvspec_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// grammars are the three flag languages built on kvspec.Grammar. fields is a
// valid spec in canonical order, one field per key used; keys is the full key
// list an unknown-key error must offer.
var grammars = []struct {
	name, empty string
	parse       func(string) (fmt.Stringer, error)
	fields      []string
	keys        string
}{
	{"fault spec", "empty fault spec",
		func(s string) (fmt.Stringer, error) { return simnet.ParseFaultSpec(s) },
		[]string{"loss=0.05", "jitter=20ms", "partition=10s@30s", "seed=3"},
		"want loss, dup, jitter, partition, or seed"},
	{"domain spec", "empty domain spec",
		func(s string) (fmt.Stringer, error) { return federation.ParseSpec(s) },
		[]string{"domains=4", "gateways=2", "hold=10s"},
		"want domains, gateways, hold, or life"},
	{"scenario", "empty scenario spec",
		func(s string) (fmt.Stringer, error) { return workload.ParseScenario(s) },
		[]string{"zipf=1.2", "flash=fn3:10@30s+20s", "churn=0.02@30s+20s", "seed=3"},
		"want zipf, diurnal, flash, churn, or seed"},
}

// TestTokenizerConformance pins the tokenizer once, over every grammar that
// uses it: what it refuses and in which words, what it tolerates, and that
// the canonical String form parses back to the same spec.
func TestTokenizerConformance(t *testing.T) {
	for _, g := range grammars {
		t.Run(g.name, func(t *testing.T) {
			canon := strings.Join(g.fields, ",")
			key, _, _ := strings.Cut(g.fields[1], "=")
			for _, c := range []struct{ what, in, want string }{
				{"empty spec", "", g.empty + " (want e.g. "},
				{"blank spec", "  \t ", g.empty + " (want e.g. "},
				{"field without =", canon + "," + key, g.name + ` field "` + key + `": want key=value`},
				{"empty key", canon + ",=1", g.name + ` field "=1": want key=value`},
				{"empty value", g.fields[0] + "," + key + "=", g.name + ` field "` + key + `=": want key=value`},
				{"empty field", canon + ",", g.name + ` field "": want key=value`},
				{"duplicate key", canon + "," + g.fields[1], g.name + ` key "` + key + `" given twice`},
				{"unknown key", canon + ",nosuch=1", g.name + ` key "nosuch": ` + g.keys},
				{"first bad field wins", g.fields[0] + ",nosuch=1,alsobad", `key "nosuch"`},
			} {
				if v, err := g.parse(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: parse(%q) = %v, %v; want an error containing %q", c.what, c.in, v, err, c.want)
				}
			}

			want, err := g.parse(canon)
			if err != nil {
				t.Fatalf("parse(%q): %v", canon, err)
			}
			if got := want.String(); got != canon {
				t.Errorf("String() = %q, want the canonical %q", got, canon)
			}
			reversed := make([]string, len(g.fields))
			for i, f := range g.fields {
				reversed[len(g.fields)-1-i] = f
			}
			for what, in := range map[string]string{
				"round trip":             want.String(),
				"surrounding whitespace": "  " + strings.Join(g.fields, " ,\t") + " ",
				"any key order":          strings.Join(reversed, ","),
			} {
				if got, err := g.parse(in); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: parse(%q) = %v, %v; want %v", what, in, got, err, want)
				}
			}
		})
	}
}
