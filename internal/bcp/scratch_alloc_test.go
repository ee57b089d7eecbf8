package bcp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// The paths this file gates allocate nothing once the engine's scratch has
// grown to the request's size; TestComposeAllocBudget only bounds their sum.

// TestCandidateScoringAllocs: merging a combination into the trial graph,
// rendering its dedupe key behind the pattern's, looking the key up and
// recording it, qualifying and scoring — everything selection does per
// combination — is free of allocation on a warm selection.
func TestCandidateScoringAllocs(t *testing.T) {
	_, engines := discoveryRing(1)
	e := engines[0]
	e.cfg.LoadAware = true
	req := &service.Request{ID: 1, FGraph: fgraph.Linear("a", "b", "c"), Bandwidth: 50, QoSReq: qos.Unbounded()}
	req.Res[qos.CPU], req.Res[qos.Memory] = 1, 10
	var records []Probe
	for rng := rand.New(rand.NewSource(3)); len(records) < 200; {
		records = append(records, randomRecords(rng, e, req, 40, 4)...)
	}
	if e.rank(req, records); len(e.sel.cands) < 5 {
		t.Fatalf("only %d qualified candidates to score", len(e.sel.cands))
	}
	s := &e.sel
	scored := 0
	allocs := testing.AllocsPerRun(20, func() {
		s.keyBytes, s.keyEnds = s.keyBytes[:0], s.keyEnds[:0]
		s.key = append(req.FGraph.AppendString(s.key[:0]), '|')
		prefix := len(s.key)
		for i := range records {
			if !s.merge(req, records, []int32{int32(i)}) {
				continue
			}
			s.key = s.trial.AppendAssignment(s.key[:prefix])
			if s.addKey(s.key) && s.trial.Qualified(req) && e.score(&s.trial, req) > 0 {
				scored++
			}
		}
	})
	if allocs != 0 || scored == 0 {
		t.Fatalf("scoring %d candidates allocates %.0f objects per pass", scored, allocs)
	}
}

type flatOracle struct{}

func (flatOracle) Path(a, b p2p.NodeID) (float64, float64, bool)     { return float64(b%7) + 1, 1e6, true }
func (flatOracle) AllocBandwidth(a, b p2p.NodeID, kbps float64) bool { return true }
func (flatOracle) ReleaseBandwidth(a, b p2p.NodeID, kbps float64)    {}

// TestNextHopPlanAllocs: the eligibility pass over every next-hop function's
// duplicate list and the scoring and ordering of the eligible ones allocate
// nothing on warm scratch.
func TestNextHopPlanAllocs(t *testing.T) {
	_, engines := discoveryRing(1)
	e := engines[0]
	e.oracle = flatOracle{}
	b := fgraph.NewBuilder()
	b.AddFunction("a")
	b.AddFunction("b")
	b.AddFunction("c")
	pat, err := b.AddDependency(0, 1).AddDependency(0, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	var table []List
	for _, fn := range []string{"b", "c"} {
		d := List{Fn: fn}
		for i := 0; i < 24; i++ {
			d.Comps = append(d.Comps, service.Component{
				ID: fmt.Sprintf("p%d/%s", i, fn), Function: fn, Peer: p2p.NodeID(i), InFormat: i % 3,
			})
		}
		table = append(table, d)
	}
	req := &service.Request{ID: 1, FGraph: pat, Bandwidth: 100}
	pr := &Probe{ReqID: 1, Req: req, Pattern: pat, Budget: 6, Visited: []Hop{{
		Fn: 0, Snap: service.Snapshot{Comp: service.Component{ID: "p0/a", Function: "a", OutFormat: 1}},
	}}}
	picked := 0
	plan := func() {
		if e.planNext(pr, pat.Successors(0), table) == 0 {
			t.Fatal("nothing to probe")
		}
		for _, nf := range e.next.fns {
			picked += len(e.pickNextHop(e.next.elig[nf.lo:nf.hi], nf.probes, req))
		}
	}
	plan()
	if len(e.next.elig) == 0 || len(e.next.elig) == 48 || len(e.next.scored) == 0 {
		t.Fatalf("%d of 48 duplicates eligible, %d scored: the pass is not exercised", len(e.next.elig), len(e.next.scored))
	}
	if allocs := testing.AllocsPerRun(50, plan); allocs != 0 || picked == 0 {
		t.Fatalf("planning the next hops allocates %.0f objects", allocs)
	}
}
