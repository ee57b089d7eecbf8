package fgraph

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// diamond builds F0 -> {F1, F2} -> F3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddFunction([]string{"src", "left", "right", "sink"}[i])
	}
	b.AddDependency(0, 1).AddDependency(0, 2).AddDependency(1, 3).AddDependency(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLinearGraph(t *testing.T) {
	g := Linear("a", "b", "c")
	if g.NumFunctions() != 3 {
		t.Fatalf("n=%d", g.NumFunctions())
	}
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("sources=%v", got)
	}
	if got := g.Successors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("succ(0)=%v", got)
	}
	if got := g.Predecessors(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pred(2)=%v", got)
	}
	if g.Function(1) != "b" {
		t.Fatalf("Function(1)=%q", g.Function(1))
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	b := NewBuilder()
	b.AddFunction("a")
	b.AddFunction("b")
	b.AddDependency(0, 1).AddDependency(1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle not rejected")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("empty graph not rejected")
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	b := NewBuilder()
	b.AddFunction("a")
	b.AddFunction("b")
	b.AddFunction("c")
	b.AddDependency(0, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("disconnected graph not rejected")
	}
}

func TestBuildRejectsBadLinks(t *testing.T) {
	b := NewBuilder()
	b.AddFunction("a")
	b.AddDependency(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range dependency not rejected")
	}
	b2 := NewBuilder()
	b2.AddFunction("a")
	b2.AddDependency(0, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("self dependency not rejected")
	}
	b3 := NewBuilder()
	b3.AddFunction("a")
	b3.AddFunction("b")
	b3.AddDependency(0, 1)
	b3.AddCommutation(0, 0)
	if _, err := b3.Build(); err == nil {
		t.Fatal("degenerate commutation not rejected")
	}
}

func TestDuplicateDependencyIgnored(t *testing.T) {
	b := NewBuilder()
	b.AddFunction("a")
	b.AddFunction("b")
	b.AddDependency(0, 1).AddDependency(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Successors(0)) != 1 {
		t.Fatal("duplicate dependency not deduplicated")
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order := g.TopoOrder()
	pos := make(map[int]int)
	for i, u := range order {
		pos[u] = i
	}
	for u := 0; u < g.NumFunctions(); u++ {
		for _, v := range g.Successors(u) {
			if pos[u] >= pos[v] {
				t.Fatalf("topo order violated: %d before %d in %v", v, u, order)
			}
		}
	}
}

func TestBranchesDiamond(t *testing.T) {
	g := diamond(t)
	br := g.Branches()
	if len(br) != 2 {
		t.Fatalf("branches=%v", br)
	}
	want := map[string]bool{"0-1-3": true, "0-2-3": true}
	for _, b := range br {
		key := ""
		for i, f := range b {
			if i > 0 {
				key += "-"
			}
			key += string(rune('0' + f))
		}
		if !want[key] {
			t.Fatalf("unexpected branch %v", b)
		}
		delete(want, key)
	}
}

func TestBranchesLinear(t *testing.T) {
	g := Linear("a", "b", "c")
	br := g.Branches()
	if len(br) != 1 || len(br[0]) != 3 {
		t.Fatalf("branches=%v", br)
	}
}

// TestBranchesCap: the path enumerator stops at its cap, which is how Build
// counts a path-explosive DAG's branches without walking them all.
func TestBranchesCap(t *testing.T) {
	g := diamond(t)
	if br := g.paths(1); len(br) != 1 || !slices.Equal(br[0], []int{0, 1, 3}) {
		t.Fatalf("cap ignored: %v", br)
	}
	if br := g.paths(0); !slices.EqualFunc(br, g.Branches(), slices.Equal) {
		t.Fatalf("unbounded paths %v, derived branches %v", br, g.Branches())
	}
}

// fanOut builds src -> k parallel functions -> sink: k branch paths.
func fanOut(k int) *Builder {
	b := NewBuilder()
	b.AddFunction("src")
	sink := b.AddFunction("sink")
	for i := 0; i < k; i++ {
		f := b.AddFunction("f" + strconv.Itoa(i))
		b.AddDependency(0, f).AddDependency(f, sink)
	}
	return b
}

// TestBuildRefusesTooManyBranches: a graph past MaxBranches is refused with
// the count in the error, one at the cap is built with every branch, and a
// DAG with 2^40 paths is refused as fast as a fan-out.
func TestBuildRefusesTooManyBranches(t *testing.T) {
	g, err := fanOut(MaxBranches).Build()
	if err != nil || len(g.Branches()) != MaxBranches {
		t.Fatalf("%d-branch fan-out: %v", MaxBranches, err)
	}
	if _, err := fanOut(MaxBranches + 1).Build(); err == nil || !strings.Contains(err.Error(), "9 or more branch paths") {
		t.Fatalf("%d-branch fan-out: err %v", MaxBranches+1, err)
	}
	b := NewBuilder()
	b.AddFunction("head")
	for i := 0; i < 40; i++ { // 40 diamonds in a row
		l, r, join := b.AddFunction("l"), b.AddFunction("r"), b.AddFunction("j")
		b.AddDependency(join-3, l).AddDependency(join-3, r).AddDependency(l, join).AddDependency(r, join)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("a DAG with 2^40 branch paths was built")
	}
}

func TestPatternsLinearWithOneCommutation(t *testing.T) {
	// a -> b -> c with b,c exchangeable: two patterns.
	b := NewBuilder()
	b.AddFunction("a")
	b.AddFunction("b")
	b.AddFunction("c")
	b.AddDependency(0, 1).AddDependency(1, 2)
	b.AddCommutation(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pats := g.Patterns()
	if len(pats) != 2 {
		t.Fatalf("patterns=%d, want 2", len(pats))
	}
	if pats[0] != g {
		t.Fatal("first pattern must be the graph itself")
	}
	// The swapped pattern is a -> c -> b.
	p := pats[1]
	if s := p.Successors(0); len(s) != 1 || s[0] != 2 {
		t.Fatalf("swapped succ(a)=%v", s)
	}
	if s := p.Successors(2); len(s) != 1 || s[0] != 1 {
		t.Fatalf("swapped succ(c)=%v", s)
	}
	if len(p.Successors(1)) != 0 {
		t.Fatalf("swapped succ(b)=%v", p.Successors(1))
	}
}

func TestPatternsTwoIndependentCommutations(t *testing.T) {
	// a->b->c->d->e with (b,c) and (d,e) exchangeable: 4 patterns.
	b := NewBuilder()
	for _, f := range []string{"a", "b", "c", "d", "e"} {
		b.AddFunction(f)
	}
	for i := 0; i < 4; i++ {
		b.AddDependency(i, i+1)
	}
	b.AddCommutation(1, 2).AddCommutation(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pats := g.Patterns()
	if len(pats) != 4 {
		t.Fatalf("patterns=%d, want 4", len(pats))
	}
	// All patterns distinct.
	for i := range pats {
		for j := i + 1; j < len(pats); j++ {
			if pats[i].Equal(pats[j]) {
				t.Fatalf("patterns %d and %d identical", i, j)
			}
		}
	}
}

func TestPatternsRespectMax(t *testing.T) {
	b := NewBuilder()
	for _, f := range []string{"a", "b", "c", "d", "e"} {
		b.AddFunction(f)
	}
	for i := 0; i < 4; i++ {
		b.AddDependency(i, i+1)
	}
	b.AddCommutation(1, 2).AddCommutation(3, 4)
	g, _ := b.Build()
	if got := g.enumerate(3); len(got) != 3 {
		t.Fatalf("max not respected: %d", len(got))
	}
	// A third exchangeable pair reaches more patterns than a graph keeps.
	b.AddFunction("f")
	b.AddDependency(4, 5).AddCommutation(4, 5)
	g, _ = b.Build()
	if all, kept := len(g.enumerate(0)), len(g.Patterns()); all <= MaxPatterns || kept != MaxPatterns {
		t.Fatalf("%d patterns reachable, %d kept; want more than %d and %d", all, kept, MaxPatterns, MaxPatterns)
	}
}

func TestPatternsNonSwappablePairIgnored(t *testing.T) {
	// In the diamond, left and right are parallel, not adjacent, so a
	// commutation link between them produces no extra pattern.
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddFunction([]string{"src", "left", "right", "sink"}[i])
	}
	b.AddDependency(0, 1).AddDependency(0, 2).AddDependency(1, 3).AddDependency(2, 3)
	b.AddCommutation(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pats := g.Patterns(); len(pats) != 1 {
		t.Fatalf("patterns=%d, want 1", len(pats))
	}
}

// Property: every pattern is a valid DAG over the same function multiset,
// and every branch of every pattern visits each function at most once. The
// enumeration walks past MaxPatterns; what Build keeps is its head, each
// pattern with its own branches.
func TestPatternsPreserveInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	widest := 0
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(5)
		b := NewBuilder()
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
			b.AddFunction(names[i])
		}
		for i := 0; i < n-1; i++ {
			b.AddDependency(i, i+1)
		}
		// Random commutation pairs on adjacent chain nodes.
		for k := 0; k < 1+rng.Intn(3); k++ {
			i := rng.Intn(n - 1)
			b.AddCommutation(i, i+1)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		all := g.enumerate(16)
		widest = max(widest, len(all))
		for i, p := range g.Patterns() {
			if !p.Equal(all[i]) || !slices.EqualFunc(p.Branches(), p.paths(0), slices.Equal) {
				t.Fatalf("pattern %d is %v with branches %v; enumerated %v with %v", i, p, p.Branches(), all[i], all[i].paths(0))
			}
			if ps := p.Patterns(); ps[0] != p || (i > 0 && len(ps) != 1) {
				t.Fatalf("pattern %d's own patterns are %v", i, ps)
			}
		}
		for _, p := range all {
			order := p.TopoOrder()
			if len(order) != n {
				t.Fatalf("pattern lost nodes: %v", order)
			}
			// The derived facts are the pattern's own, not its parent's.
			fresh := NewBuilder()
			for i := 0; i < n; i++ {
				fresh.AddFunction(p.Function(i))
				for _, v := range p.Successors(i) {
					fresh.AddDependency(i, v)
				}
			}
			if f, err := fresh.Build(); err != nil || !slices.Equal(order, f.TopoOrder()) || !slices.Equal(p.Sources(), f.Sources()) {
				t.Fatalf("pattern %v: order %v and sources %v, built afresh %v and %v (%v)", p, order, p.Sources(), f.TopoOrder(), f.Sources(), err)
			}
			for _, br := range p.paths(0) {
				seen := map[int]bool{}
				for _, f := range br {
					if seen[f] {
						t.Fatalf("branch revisits function %d: %v", f, br)
					}
					seen[f] = true
				}
			}
			// Same function multiset.
			for i := 0; i < n; i++ {
				if p.Function(i) != g.Function(i) {
					t.Fatal("pattern renamed a function")
				}
			}
		}
	}
	if widest <= MaxPatterns {
		t.Fatalf("no trial reached more than %d patterns (at most %d)", MaxPatterns, widest)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.clone()
	if !c.Equal(g) {
		t.Fatal("clone not equal")
	}
	c.succ[0] = nil
	if len(g.Successors(0)) != 2 {
		t.Fatal("mutating clone affected original")
	}
}

func TestString(t *testing.T) {
	g := Linear("a", "b")
	if s := g.String(); s != "a->b" {
		t.Fatalf("String=%q", s)
	}
	single, err := func() (*Graph, error) {
		b := NewBuilder()
		b.AddFunction("solo")
		return b.Build()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if s := single.String(); s != "solo" {
		t.Fatalf("String=%q", s)
	}
}

func TestFunctionsCopy(t *testing.T) {
	g := Linear("a", "b")
	fs := g.Functions()
	fs[0] = "mutated"
	if g.Function(0) != "a" {
		t.Fatal("Functions returned a live reference")
	}
}

// TestSignatureAllocs: rendering a pattern's signature, as Build does for
// every exchange it tries, allocates at most the key string.
func TestSignatureAllocs(t *testing.T) {
	b := NewBuilder()
	for _, f := range []string{"fn0", "fn1", "fn2", "fn3", "fn4", "fn5"} {
		b.AddFunction(f)
	}
	b.AddDependency(0, 1).AddDependency(1, 2).AddDependency(1, 3).AddDependency(2, 4).AddDependency(3, 4).AddDependency(4, 5)
	g, err := b.AddCommutation(4, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	if sig := g.signature(); sig != "0:fn0;1:fn1;2:fn2;3:fn3;4:fn4;5:fn5;|0>1;1>2;1>3;2>4;3>4;4>5;" {
		t.Fatalf("signature %q", sig)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = g.signature() }); avg > 1 {
		t.Fatalf("a signature allocates %.0f objects, want the string alone", avg)
	}
}
