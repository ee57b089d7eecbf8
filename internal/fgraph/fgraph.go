// Package fgraph models the abstract side of a composite service request:
// a directed acyclic graph of required service functions connected by
// dependency links, plus commutation links marking pairs of functions whose
// composition order may be exchanged (§2.1 of the paper).
//
// The commutation links induce a set of composition patterns — the first
// dimension of the paper's two-dimensional graph mapping problem (§2.4) —
// and each pattern decomposes into the source→sink branch paths individual
// composition probes traverse. Both are derived once, when a graph is built,
// under the one cap pair every composer shares: MaxPatterns and MaxBranches.
package fgraph

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// The shape caps of a request, shared by BCP and every baseline.
const (
	// MaxPatterns caps the composition patterns a graph derives from its
	// commutation links, the graph itself included.
	MaxPatterns = 4
	// MaxBranches caps a graph's source→sink branch paths: Build refuses a
	// graph with more, so no composer ever sees a truncated branch set.
	MaxBranches = 8
)

// Graph is an immutable function graph. Build one with a Builder or Linear.
// A graph is shared read-only, across goroutines too, so the facts derived
// from its links (order, sources, patterns, branches) are computed when it
// is made, never on first use.
type Graph struct {
	fns     []string
	succ    [][]int
	pred    [][]int
	commute [][2]int
	// order is a topological order; sources, its head, the nodes with no
	// predecessors.
	order, sources []int
	// patterns are the composition patterns, pattern 0 the graph itself;
	// branches are the source→sink paths.
	patterns []*Graph
	branches [][]int
}

// Builder accumulates functions and links and validates them into a Graph.
type Builder struct {
	fns     []string
	deps    [][2]int
	commute [][2]int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddFunction appends a required function and returns its node index.
func (b *Builder) AddFunction(name string) int {
	b.fns = append(b.fns, name)
	return len(b.fns) - 1
}

// AddDependency records that the output of function from feeds function to.
func (b *Builder) AddDependency(from, to int) *Builder {
	b.deps = append(b.deps, [2]int{from, to})
	return b
}

// AddCommutation records that functions a and b may be composed in either
// order when they are adjacent in the dependency chain.
func (b *Builder) AddCommutation(a, c int) *Builder {
	b.commute = append(b.commute, [2]int{a, c})
	return b
}

// Build validates the accumulated structure and returns the Graph. It
// requires at least one function, in-range link endpoints, acyclicity, weak
// connectivity and at most MaxBranches branch paths.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.fns)
	if n == 0 {
		return nil, errors.New("fgraph: empty function graph")
	}
	g := &Graph{
		fns:  append([]string(nil), b.fns...),
		succ: make([][]int, n),
		pred: make([][]int, n),
	}
	for _, d := range b.deps {
		if d[0] < 0 || d[0] >= n || d[1] < 0 || d[1] >= n {
			return nil, fmt.Errorf("fgraph: dependency %v out of range", d)
		}
		if d[0] == d[1] {
			return nil, fmt.Errorf("fgraph: self dependency on %q", b.fns[d[0]])
		}
		if !containsInt(g.succ[d[0]], d[1]) {
			g.succ[d[0]] = append(g.succ[d[0]], d[1])
			g.pred[d[1]] = append(g.pred[d[1]], d[0])
		}
	}
	for _, c := range b.commute {
		if c[0] < 0 || c[0] >= n || c[1] < 0 || c[1] >= n || c[0] == c[1] {
			return nil, fmt.Errorf("fgraph: commutation %v invalid", c)
		}
		g.commute = append(g.commute, c)
	}
	for i := range g.succ {
		sort.Ints(g.succ[i])
		sort.Ints(g.pred[i])
	}
	if err := g.derive(); err != nil {
		return nil, err
	}
	if !g.weaklyConnected() {
		return nil, errors.New("fgraph: function graph is not connected")
	}
	// Counting stops one past the cap, so a path-explosive DAG costs
	// nothing. An exchange of a chain segment keeps the count, so no
	// pattern is over the cap either.
	if g.branches = g.paths(MaxBranches + 1); len(g.branches) > MaxBranches {
		return nil, fmt.Errorf("fgraph: %d or more branch paths, more than MaxBranches (%d)", len(g.branches), MaxBranches)
	}
	g.patterns = g.enumerate(MaxPatterns)
	for i := 1; i < len(g.patterns); i++ {
		p := g.patterns[i]
		p.patterns, p.branches = g.patterns[i:i+1:i+1], p.paths(0)
	}
	return g, nil
}

// Linear builds a chain F1 -> F2 -> ... -> Fk with no commutation links.
// It panics on an empty list (a programming error).
func Linear(fns ...string) *Graph {
	b := NewBuilder()
	for i, f := range fns {
		b.AddFunction(f)
		if i > 0 {
			b.AddDependency(i-1, i)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("fgraph.Linear: " + err.Error())
	}
	return g
}

// NumFunctions returns the number of function nodes.
func (g *Graph) NumFunctions() int { return len(g.fns) }

// Function returns the name of function node i.
func (g *Graph) Function(i int) string { return g.fns[i] }

// Functions returns a copy of all function names in node order.
func (g *Graph) Functions() []string { return append([]string(nil), g.fns...) }

// Successors returns the function nodes that depend on i's output.
// The returned slice must not be modified.
func (g *Graph) Successors(i int) []int { return g.succ[i] }

// Predecessors returns the function nodes whose output feeds i.
// The returned slice must not be modified.
func (g *Graph) Predecessors(i int) []int { return g.pred[i] }

// Sources returns the nodes with no predecessors (fed by the application
// sender), in ascending order. The returned slice must not be modified.
func (g *Graph) Sources() []int { return g.sources }

// Commutations returns the commutation pairs. The slice must not be
// modified.
func (g *Graph) Commutations() [][2]int { return g.commute }

// TopoOrder returns a topological order of the function nodes: breadth
// first from the sources. The returned slice must not be modified.
func (g *Graph) TopoOrder() []int { return g.order }

// derive computes order and sources from the links, or reports a cycle.
// Kahn's queue is order itself: a node is appended once its last
// predecessor is, and the sources come first, in ascending order.
func (g *Graph) derive() error {
	n := len(g.fns)
	indeg := make([]int, n)
	order := make([]int, 0, n)
	for i := range g.fns {
		if indeg[i] = len(g.pred[i]); indeg[i] == 0 {
			order = append(order, i)
		}
	}
	sources := len(order)
	for at := 0; at < len(order); at++ {
		for _, v := range g.succ[order[at]] {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		return errors.New("fgraph: dependency cycle")
	}
	g.order, g.sources = order, order[:sources:sources]
	return nil
}

func (g *Graph) weaklyConnected() bool {
	n := len(g.fns)
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.succ[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
		for _, v := range g.pred[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// clone returns a copy of g whose links may be rewired. The names,
// commutation links, order and sources are shared, being read-only; whoever
// rewires the copy derives order and sources again.
func (g *Graph) clone() *Graph {
	c := &Graph{
		fns:     g.fns,
		succ:    make([][]int, len(g.succ)),
		pred:    make([][]int, len(g.pred)),
		commute: g.commute,
		order:   g.order,
		sources: g.sources,
	}
	for i := range g.succ {
		c.succ[i] = append([]int(nil), g.succ[i]...)
		c.pred[i] = append([]int(nil), g.pred[i]...)
	}
	return c
}

// Equal reports whether two graphs have identical functions, dependencies,
// and commutation links.
func (g *Graph) Equal(o *Graph) bool { return g.signature() == o.signature() }

// signature renders the functions and dependencies as
// "0:name;1:name;|0>1;", one key string behind a stack buffer.
func (g *Graph) signature() string {
	var buf [128]byte
	b := buf[:0]
	for i, f := range g.fns {
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(append(append(b, ':'), f...), ';')
	}
	b = append(b, '|')
	for i := range g.succ {
		for _, v := range g.succ[i] {
			b = append(strconv.AppendInt(b, int64(i), 10), '>')
			b = append(strconv.AppendInt(b, int64(v), 10), ';')
		}
	}
	return string(b)
}

// String renders the graph as "F1->F2 F1->F3 ..." with node names.
func (g *Graph) String() string { return string(g.AppendString(nil)) }

// AppendString appends the String rendering to dst and returns the extended
// buffer, for callers that render many graphs into one reused buffer.
func (g *Graph) AppendString(dst []byte) []byte {
	start := len(dst)
	for i := range g.succ {
		for _, v := range g.succ[i] {
			if len(dst) > start {
				dst = append(dst, ' ')
			}
			dst = append(dst, g.fns[i]...)
			dst = append(dst, "->"...)
			dst = append(dst, g.fns[v]...)
		}
	}
	if len(dst) == start {
		// single node, no edges
		dst = append(dst, g.fns[0]...)
	}
	return dst
}

// swappable reports whether nodes a and b form a chain segment a->b with
// out(a)={b} and in(b)={a}, which is the condition under which their order
// can be exchanged without touching the rest of the graph.
func (g *Graph) swappable(a, b int) bool {
	return len(g.succ[a]) == 1 && g.succ[a][0] == b && len(g.pred[b]) == 1 && g.pred[b][0] == a
}

// swapAdjacent rewires a->b into b->a in place: pred(a)→b, b→a, a→succ(b).
// It reports whether the swap applied (in either orientation).
func (g *Graph) swapAdjacent(a, b int) bool {
	if g.swappable(b, a) {
		a, b = b, a
	} else if !g.swappable(a, b) {
		return false
	}
	preds := append([]int(nil), g.pred[a]...)
	succs := append([]int(nil), g.succ[b]...)
	// Detach the segment.
	for _, p := range preds {
		g.succ[p] = removeInt(g.succ[p], a)
	}
	for _, s := range succs {
		g.pred[s] = removeInt(g.pred[s], b)
	}
	// Rewire as p -> b -> a -> s.
	g.pred[a] = []int{b}
	g.succ[a] = succs
	g.pred[b] = preds
	g.succ[b] = []int{a}
	for _, p := range preds {
		g.succ[p] = insertSorted(g.succ[p], b)
	}
	for _, s := range succs {
		g.pred[s] = insertSorted(g.pred[s], a)
	}
	return true
}

// Patterns returns the composition patterns of a graph made by Build: the
// graph itself first, then those its commutation-link exchanges reach,
// breadth first, so patterns requiring fewer exchanges come first — at most
// MaxPatterns. A pattern's own patterns are itself alone: its exchanges
// were explored from the graph it came out of. The returned slice must not
// be modified.
func (g *Graph) Patterns() []*Graph { return g.patterns }

// Branches returns every source→sink dependency path, each as a slice of
// node indices, in depth-first order. A probe traverses exactly one branch
// (§4.3); the destination merges branch probes back into complete service
// graphs. The returned slices must not be modified.
func (g *Graph) Branches() [][]int { return g.branches }

// enumerate returns g and the patterns its exchanges reach, breadth first,
// up to max graphs (max <= 0 means unbounded).
func (g *Graph) enumerate(max int) []*Graph {
	patterns := []*Graph{g}
	if len(g.commute) == 0 {
		return patterns
	}
	seen := map[string]bool{g.signature(): true}
	for at := 0; at < len(patterns); at++ {
		cur := patterns[at]
		for _, c := range cur.commute {
			if max > 0 && len(patterns) >= max {
				return patterns
			}
			next := cur.clone()
			if !next.swapAdjacent(c[0], c[1]) {
				continue
			}
			sig := next.signature()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			if err := next.derive(); err != nil {
				panic(err) // an exchange of a chain segment keeps the graph acyclic
			}
			patterns = append(patterns, next)
		}
	}
	return patterns
}

// paths returns g's source→sink paths in depth-first order, stopping at max
// of them (max <= 0 means unbounded).
func (g *Graph) paths(max int) [][]int {
	var out [][]int
	path := make([]int, 0, len(g.fns))
	var dfs func(u int)
	dfs = func(u int) {
		if max > 0 && len(out) >= max {
			return
		}
		path = append(path, u)
		if len(g.succ[u]) == 0 {
			out = append(out, append([]int(nil), path...))
		}
		for _, v := range g.succ[u] {
			dfs(v)
		}
		path = path[:len(path)-1]
	}
	for _, s := range g.sources {
		dfs(s)
	}
	return out
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func removeInt(s []int, x int) []int {
	out := s[:0]
	for _, v := range s {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}
