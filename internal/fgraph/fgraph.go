// Package fgraph models the abstract side of a composite service request:
// a directed acyclic graph of required service functions connected by
// dependency links, plus commutation links marking pairs of functions whose
// composition order may be exchanged (§2.1 of the paper).
//
// The commutation links induce a set of composition patterns — the first
// dimension of the paper's two-dimensional graph mapping problem (§2.4).
// Patterns enumerates them; Branches decomposes a (pattern) graph into the
// source→sink branch paths that individual composition probes traverse.
package fgraph

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// Graph is an immutable function graph. Build one with a Builder or Linear.
// A graph is shared read-only, across goroutines too, so the facts derived
// from its links (order, sources) are computed when it is made, never on
// first use.
type Graph struct {
	fns     []string
	succ    [][]int
	pred    [][]int
	commute [][2]int
	// order is a topological order; sources, its head, the nodes with no
	// predecessors.
	order, sources []int
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
// requires at least one function, in-range link endpoints, acyclicity, and
// weak connectivity.
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

// Sinks returns the nodes with no successors (feeding the destination).
func (g *Graph) Sinks() []int {
	var s []int
	for i := range g.fns {
		if len(g.succ[i]) == 0 {
			s = append(s, i)
		}
	}
	return s
}

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

// Clone returns a deep copy of g. The derived order and sources are
// shared, being read-only; whoever rewires the copy derives them again.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		fns:     append([]string(nil), g.fns...),
		succ:    make([][]int, len(g.succ)),
		pred:    make([][]int, len(g.pred)),
		commute: append([][2]int(nil), g.commute...),
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

// Patterns enumerates the composition patterns reachable from g by applying
// commutation-link exchanges, including g itself, up to max graphs (max <= 0
// means unbounded). Exploration is breadth-first, so patterns requiring
// fewer exchanges come first.
func (g *Graph) Patterns(max int) []*Graph {
	seen := map[string]bool{g.signature(): true}
	patterns := []*Graph{g.Clone()}
	for at := 0; at < len(patterns); at++ {
		if max > 0 && len(patterns) >= max {
			break
		}
		cur := patterns[at]
		for _, c := range cur.commute {
			next := cur.Clone()
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
			if max > 0 && len(patterns) >= max {
				break
			}
		}
	}
	return patterns
}

// Branches returns every source→sink dependency path, each as a slice of
// node indices. A probe traverses exactly one branch (§4.3); the destination
// merges branch probes back into complete service graphs. The number of
// branches is capped at maxBranches to bound work on pathological DAGs
// (maxBranches <= 0 means unbounded).
func (g *Graph) Branches(maxBranches int) [][]int {
	var out [][]int
	var path []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		path = append(path, u)
		defer func() { path = path[:len(path)-1] }()
		if len(g.succ[u]) == 0 {
			out = append(out, append([]int(nil), path...))
			return maxBranches <= 0 || len(out) < maxBranches
		}
		for _, v := range g.succ[u] {
			if !dfs(v) {
				return false
			}
		}
		return true
	}
	for _, s := range g.Sources() {
		if !dfs(s) {
			break
		}
	}
	return out
}

// SharedFunctions returns the node indices that occur in more than one
// branch — the functions on which branch probes must agree for their
// recordings to merge into one service graph.
func (g *Graph) SharedFunctions(maxBranches int) []int {
	count := make([]int, len(g.fns))
	for _, br := range g.Branches(maxBranches) {
		for _, f := range br {
			count[f]++
		}
	}
	var shared []int
	for i, c := range count {
		if c > 1 {
			shared = append(shared, i)
		}
	}
	return shared
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
