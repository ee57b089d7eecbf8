package fgraph

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"slices"
	"testing"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatal(err)
	}
	var out Graph
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestGobRoundTripLinear(t *testing.T) {
	g := Linear("a", "b", "c")
	got := roundTrip(t, g)
	if !got.Equal(g) {
		t.Fatalf("round trip changed graph: %s vs %s", got, g)
	}
}

func TestGobRoundTripDAGWithCommutation(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddFunction(string(rune('a' + i)))
	}
	b.AddDependency(0, 1).AddDependency(0, 2).AddDependency(1, 3).AddDependency(2, 3).AddDependency(3, 4)
	b.AddCommutation(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, g)
	if !got.Equal(g) {
		t.Fatal("round trip changed DAG")
	}
	if len(got.Commutations()) != 1 {
		t.Fatal("commutation links lost")
	}
	// The decoded graph derived its shapes, pattern 0 itself.
	if len(got.Patterns()) != len(g.Patterns()) || got.Patterns()[0] != got {
		t.Fatal("patterns differ after round trip")
	}
	if !slices.EqualFunc(got.Branches(), g.Branches(), slices.Equal) {
		t.Fatal("branches differ after round trip")
	}
}

// Property: any valid built graph survives a gob round trip intact.
func TestGobRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddFunction(string(rune('a' + i)))
		}
		for i := 0; i < n-1; i++ {
			b.AddDependency(i, i+1)
		}
		// Random extra forward edges keep it a DAG.
		for k := 0; k < rng.Intn(3); k++ {
			i := rng.Intn(n - 1)
			j := i + 1 + rng.Intn(n-i-1)
			b.AddDependency(i, j)
		}
		if rng.Intn(2) == 0 && n >= 3 {
			i := rng.Intn(n - 1)
			b.AddCommutation(i, i+1)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := roundTrip(t, g); !got.Equal(g) {
			t.Fatalf("trial %d: round trip changed graph", trial)
		}
	}
}

// TestGobDecodeRefusesTooManyBranches: a peer cannot send a graph Build
// would refuse; one at the cap decodes.
func TestGobDecodeRefusesTooManyBranches(t *testing.T) {
	for k := MaxBranches; k <= MaxBranches+1; k++ {
		w := wireGraph{Fns: []string{"src", "sink"}}
		for i := 0; i < k; i++ {
			w.Fns = append(w.Fns, "f")
			w.Deps = append(w.Deps, [2]int{0, 2 + i}, [2]int{2 + i, 1})
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		var g Graph
		if err := g.GobDecode(buf.Bytes()); (err == nil) != (k <= MaxBranches) {
			t.Fatalf("%d-branch fan-out: err %v", k, err)
		}
	}
}

func TestGobDecodeRejectsMalformed(t *testing.T) {
	// An adversarial wire form encoding a cyclic graph must be rejected by
	// the decode-time validation.
	w := wireGraph{
		Fns:  []string{"a", "b"},
		Deps: [][2]int{{0, 1}, {1, 0}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	var g Graph
	if err := g.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("cyclic wire graph accepted")
	}
}
