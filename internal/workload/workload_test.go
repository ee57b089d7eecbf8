package workload

import (
	"math/rand"
	"testing"

	"repro/internal/qos"
)

func catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A' + i))
	}
	return out
}

func TestNextProducesValidRequests(t *testing.T) {
	g := NewGenerator(Config{Catalog: catalog(10), Peers: 50}, rand.New(rand.NewSource(1)))
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		r := g.Next()
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid request: %v", err)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate request ID %d", r.ID)
		}
		seen[r.ID] = true
		if r.Source == r.Dest {
			t.Fatal("source equals destination")
		}
		if int(r.Source) >= 50 || int(r.Dest) >= 50 {
			t.Fatal("endpoint out of range")
		}
		nf := r.FGraph.NumFunctions()
		if nf < 2 || nf > 4 {
			t.Fatalf("function count %d outside [2,4]", nf)
		}
		// Functions are distinct.
		fns := map[string]bool{}
		for _, f := range r.FGraph.Functions() {
			if fns[f] {
				t.Fatal("duplicate function in request")
			}
			fns[f] = true
		}
		if r.QoSReq[qos.Delay] < 800 || r.QoSReq[qos.Delay] > 3000 {
			t.Fatalf("delay requirement %v out of range", r.QoSReq[qos.Delay])
		}
		if r.Bandwidth < 50 || r.Bandwidth > 300 {
			t.Fatalf("bandwidth %v out of range", r.Bandwidth)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g1 := NewGenerator(Config{Catalog: catalog(8), Peers: 20}, rand.New(rand.NewSource(7)))
	g2 := NewGenerator(Config{Catalog: catalog(8), Peers: 20}, rand.New(rand.NewSource(7)))
	for i := 0; i < 50; i++ {
		a, b := g1.Next(), g2.Next()
		if a.ID != b.ID || a.Source != b.Source || a.Dest != b.Dest ||
			a.FGraph.String() != b.FGraph.String() || a.Bandwidth != b.Bandwidth {
			t.Fatalf("request %d differs between same-seed generators", i)
		}
	}
}

func TestDAGGeneration(t *testing.T) {
	g := NewGenerator(Config{
		Catalog: catalog(10), Peers: 20,
		MinFuncs: 4, MaxFuncs: 5, DAGProb: 1.0,
	}, rand.New(rand.NewSource(3)))
	sawDiamond := false
	for i := 0; i < 20; i++ {
		r := g.Next()
		if len(r.FGraph.Branches()) >= 2 {
			sawDiamond = true
			// Diamond: node 0 fans out to 1 and 2.
			if s := r.FGraph.Successors(0); len(s) != 2 {
				t.Fatalf("fan-out=%v", s)
			}
		}
	}
	if !sawDiamond {
		t.Fatal("DAGProb=1 produced no DAGs")
	}
}

func TestCommutationGeneration(t *testing.T) {
	g := NewGenerator(Config{
		Catalog: catalog(10), Peers: 20,
		MinFuncs: 3, MaxFuncs: 4, CommuteProb: 1.0,
	}, rand.New(rand.NewSource(4)))
	for i := 0; i < 20; i++ {
		r := g.Next()
		if len(r.FGraph.Commutations()) != 1 {
			t.Fatalf("request %d has %d commutation links, want 1", i, len(r.FGraph.Commutations()))
		}
		// Each commutation produces exactly one extra pattern.
		if got := len(r.FGraph.Patterns()); got != 2 {
			t.Fatalf("patterns=%d, want 2", got)
		}
	}
}

func TestFunctionCountCappedByCatalog(t *testing.T) {
	g := NewGenerator(Config{
		Catalog: catalog(3), Peers: 10, MinFuncs: 5, MaxFuncs: 8,
	}, rand.New(rand.NewSource(5)))
	r := g.Next()
	if r.FGraph.NumFunctions() != 3 {
		t.Fatalf("functions=%d, want catalogue size 3", r.FGraph.NumFunctions())
	}
}

func TestIDsStayBelowRecoveryNamespace(t *testing.T) {
	g := NewGenerator(Config{Catalog: catalog(5), Peers: 10}, rand.New(rand.NewSource(6)))
	for i := 0; i < 1000; i++ {
		if r := g.Next(); r.ID >= maxID {
			t.Fatalf("ID %d crosses the reattempt namespace", r.ID)
		}
	}
}
