package service

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
)

// randomGraph builds a service graph over nf functions with component IDs
// drawn from a pool of size poolSize.
func randomGraph(rng *rand.Rand, nf, poolSize int) *Graph {
	names := make([]string, nf)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	g := &Graph{Pattern: fgraph.Linear(names...), Comps: map[int]Snapshot{}}
	// Component IDs are distinct within a graph (a component serves exactly
	// one function of a request; BCP's visited-set enforces it).
	ids := rng.Perm(poolSize)
	for i := 0; i < nf; i++ {
		id := ids[i]
		var avail qos.Resources
		avail[qos.CPU] = 1 + rng.Float64()*9
		avail[qos.Memory] = 10 + rng.Float64()*90
		g.Comps[i] = Snapshot{
			Comp: Component{
				ID:       fmt.Sprintf("c%d", id),
				Function: names[i],
				Peer:     p2p.NodeID(id),
				FailProb: rng.Float64() * 0.2,
			},
			Avail: avail,
		}
	}
	return g
}

// Property: Overlap is symmetric and bounded by both graph sizes, and a
// graph fully overlaps itself.
func TestOverlapProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 200; trial++ {
		a := randomGraph(rng, 2+rng.Intn(3), 6)
		b := randomGraph(rng, 2+rng.Intn(3), 6)
		if a.Overlap(b) != b.Overlap(a) {
			t.Fatalf("overlap asymmetric: %d vs %d", a.Overlap(b), b.Overlap(a))
		}
		if ov := a.Overlap(b); ov > len(a.Comps) || ov > len(b.Comps) {
			t.Fatalf("overlap %d exceeds graph sizes", ov)
		}
		// Self-overlap counts each distinct component once.
		distinct := map[string]bool{}
		for _, s := range a.Comps {
			distinct[s.Comp.ID] = true
		}
		if a.Overlap(a) != len(a.Comps) {
			t.Fatalf("self overlap %d != %d assignments", a.Overlap(a), len(a.Comps))
		}
	}
}

// Property: FailProb is within [0,1] and monotone — adding a peer with
// positive failure probability never lowers the graph's failure
// probability.
func TestFailProbProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 200; trial++ {
		nf := 2 + rng.Intn(4)
		g := randomGraph(rng, nf, 100) // large pool: distinct peers
		f := g.FailProb()
		if f < 0 || f > 1 {
			t.Fatalf("FailProb=%v out of range", f)
		}
		// Extend with one more risky component on a fresh peer.
		bigger := randomGraph(rng, nf+1, 100)
		for i := 0; i < nf; i++ {
			bigger.Comps[i] = g.Comps[i]
		}
		bigger.Comps[nf] = Snapshot{Comp: Component{
			ID: "extra", Peer: p2p.NodeID(999), FailProb: 0.3,
		}}
		if bigger.FailProb() < f-1e-12 {
			t.Fatalf("adding a risky peer lowered FailProb: %v -> %v", f, bigger.FailProb())
		}
	}
}

// Property: Cost is monotone in availability — doubling every hop's
// availability never increases ψ.
func TestCostMonotoneInAvailability(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, 2+rng.Intn(3), 50)
		g.Links = []LinkSnapshot{{FromFn: -1, ToFn: 0, BandAvail: 100 + rng.Float64()*900}}
		var res qos.Resources
		res[qos.CPU] = 0.5
		res[qos.Memory] = 5
		req := &Request{FGraph: g.Pattern, Res: res, Bandwidth: 10, Budget: 1}
		base := g.Cost(req)

		richer := &Graph{Pattern: g.Pattern, Comps: map[int]Snapshot{}, Links: g.Links}
		for i, s := range g.Comps {
			s.Avail = s.Avail.Add(s.Avail)
			richer.Comps[i] = s
		}
		if richer.Cost(req) > base+1e-12 {
			t.Fatalf("doubling availability raised cost: %v -> %v", base, richer.Cost(req))
		}
	}
}

// Property: Key is injective over assignments — graphs with different
// component IDs never share a key, and identical assignment+pattern always
// do.
func TestKeyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		a := randomGraph(rng, 3, 8)
		b := &Graph{Pattern: a.Pattern, Comps: map[int]Snapshot{}}
		same := true
		for i, s := range a.Comps {
			if rng.Intn(4) == 0 {
				s.Comp.ID = s.Comp.ID + "'"
				same = false
			}
			b.Comps[i] = s
		}
		if same != (a.Key() == b.Key()) {
			t.Fatalf("key mismatch: same=%v keys %q vs %q", same, a.Key(), b.Key())
		}
	}
}
