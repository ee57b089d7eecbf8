package bcp_test

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fgraph"
	"repro/internal/service"
)

func unassigned(s service.Snapshot) bool { return !s.Assigned() }

// Tests for the alternative-variant composition semantics (the paper's §8
// future-work "more expressive composition semantics such as conditional
// branch"): a request names alternative function graphs and BCP picks the
// best qualified graph across all of them.

func TestVariantsComposeAcrossShapes(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 98, Peers: 70, Catalog: catalog(6)})
	fns := c.FunctionsByReplicas()
	req := req3(c, 1, 40)
	// Primary: 3-function chain. Variant: a cheaper 2-function chain using
	// a different middle function.
	req.FGraph = fgraph.Linear(fns[0], fns[1], fns[2])
	req.Variants = []*fgraph.Graph{fgraph.Linear(fns[0], fns[3])}
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("variant composition failed")
	}
	// Conditional-branch semantics: the primary shape wins when it
	// qualifies; the variant is only a fallback.
	if n := res.Best.Pattern.NumFunctions(); n != 3 {
		t.Fatalf("selected the variant (%d functions) although the primary qualifies", n)
	}
	// All candidates across best+backups are complete for their own shape.
	for _, g := range append(res.Backups, res.Best) {
		if len(g.Comps) != g.Pattern.NumFunctions() || slices.ContainsFunc(g.Comps, unassigned) {
			t.Fatalf("incomplete candidate: %d/%d", len(g.Comps), g.Pattern.NumFunctions())
		}
	}
}

func TestVariantChosenWhenPrimaryInfeasible(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 99, Peers: 70, Catalog: catalog(6)})
	fns := c.FunctionsByReplicas()
	req := req3(c, 1, 40)
	// The primary graph names a function nobody provides; only the variant
	// can qualify.
	req.FGraph = fgraph.Linear(fns[0], "no-such-function")
	req.Variants = []*fgraph.Graph{fgraph.Linear(fns[0], fns[1])}
	res := compose(c, req)
	if !res.Ok {
		t.Fatal("composition failed despite a feasible variant")
	}
	if res.Best.Pattern.Function(1) != fns[1] {
		t.Fatalf("selected the infeasible primary: %s", res.Best)
	}
}

func TestVariantsValidation(t *testing.T) {
	c := cluster.New(cluster.Options{Seed: 100, Peers: 40, Catalog: catalog(4)})
	req := req3(c, 1, 8)
	req.Variants = []*fgraph.Graph{nil}
	if err := req.Validate(); err == nil {
		t.Fatal("nil variant accepted")
	}
	req.Variants = []*fgraph.Graph{fgraph.Linear("x")}
	req.Quota = []int{1, 1, 1}
	if err := req.Validate(); err == nil {
		t.Fatal("quota + variants accepted")
	}
}
