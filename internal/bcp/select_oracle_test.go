package bcp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// This file keeps the selection code the engine ran before it stopped
// building a graph per combination — mergeRecords, enumerateCombos,
// mergeCombo and the tier/score comparator, unchanged but for reading a
// record's links from its hops — as the oracle the scratch-based selection
// (Engine.rank, selection.build) must agree with: the same candidates in the
// same order, the same Best, the same Backups.

// oracleSelect is the body of the old finishCollect up to the sends: every
// distinct candidate, and the qualified ones best first.
func oracleSelect(e *Engine, req *service.Request, records []Probe) (candidates, qualified []*service.Graph) {
	candidates = oracleMergeRecords(req, records)
	for _, c := range candidates {
		if c.Qualified(req) {
			qualified = append(qualified, c)
		}
	}
	score := func(g *service.Graph) float64 {
		var s float64
		if e.cfg.SelectByDelay {
			s = g.QoS[qos.Delay]
		} else {
			s = g.Cost(req)
		}
		if e.Load != nil && e.Load.Aware {
			s *= 1 + maxUtil(g)
		}
		return s
	}
	primaryPatterns := len(req.FGraph.Patterns(e.primaryPatternCap()))
	tier := func(g *service.Graph) int {
		if g.PatternIdx < primaryPatterns {
			return 0
		}
		return 1
	}
	sort.SliceStable(qualified, func(i, j int) bool {
		ti, tj := tier(qualified[i]), tier(qualified[j])
		if ti != tj {
			return ti < tj
		}
		return score(qualified[i]) < score(qualified[j])
	})
	return candidates, qualified
}

// idleLoad reports every peer idle.
type idleLoad struct{}

func (idleLoad) Util(p2p.NodeID) float64      { return 0 }
func (idleLoad) Committed(p2p.NodeID) float64 { return 0 }

// awarePlane is a load-aware plane that neither sheds nor inflates delays:
// selection scales each score by its graph's recorded utilization.
func awarePlane() *LoadPlane {
	return &LoadPlane{LoadOptions: LoadOptions{Aware: true}, Oracle: idleLoad{}}
}

func oracleMergeRecords(req *service.Request, records []Probe) []*service.Graph {
	byPattern := make(map[int][]Probe)
	patterns := make(map[int]*Probe)
	for i, r := range records {
		byPattern[r.PatternIdx] = append(byPattern[r.PatternIdx], r)
		patterns[r.PatternIdx] = &records[i]
	}
	patIdx := make([]int, 0, len(byPattern))
	for pi := range byPattern {
		patIdx = append(patIdx, pi)
	}
	sort.Ints(patIdx)

	var out []*service.Graph
	seen := make(map[string]bool)
	for _, pi := range patIdx {
		pat := patterns[pi].Pattern
		branches := pat.Branches(maxBranches)
		slots := make([][]Probe, len(branches))
		for i := range byPattern[pi] {
			if bi := branchIndex(branches, &byPattern[pi][i]); bi >= 0 {
				slots[bi] = append(slots[bi], byPattern[pi][i])
			}
		}
		complete := true
		for _, s := range slots {
			if len(s) == 0 {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		oracleEnumerateCombos(req, pi, slots, func(g *service.Graph) bool {
			if key := g.Key(); !seen[key] {
				seen[key] = true
				out = append(out, g)
			}
			return len(out) < maxCandidates
		})
		if len(out) >= maxCandidates {
			break
		}
	}
	return out
}

func oracleEnumerateCombos(req *service.Request, patternIdx int, slots [][]Probe, emit func(*service.Graph) bool) {
	idx := make([]int, len(slots))
	for {
		if g := oracleMergeCombo(req, patternIdx, slots, idx); g != nil {
			if !emit(g) {
				return
			}
		}
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(slots[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return
		}
	}
}

func oracleMergeCombo(req *service.Request, patternIdx int, slots [][]Probe, idx []int) *service.Graph {
	g := &service.Graph{
		Pattern:    slots[0][idx[0]].Pattern,
		PatternIdx: patternIdx,
		Comps:      make(map[int]service.Snapshot),
		Req:        req,
	}
	type linkKey struct{ from, to int }
	links := make(map[linkKey]service.LinkSnapshot)
	for bi := range slots {
		r := slots[bi][idx[bi]]
		for _, h := range r.Visited {
			if prev, ok := g.Comps[h.Fn]; ok {
				if prev.Comp.ID != h.Snap.Comp.ID {
					return nil
				}
				continue
			}
			g.Comps[h.Fn] = h.Snap
		}
		recorded := []service.LinkSnapshot{}
		for _, h := range r.Visited {
			recorded = append(recorded, h.In)
		}
		for _, l := range append(recorded, r.Egress) {
			k := linkKey{l.FromFn, l.ToFn}
			if _, ok := links[k]; !ok {
				links[k] = l
			}
		}
		g.QoS = g.QoS.Max(r.QoS)
	}
	g.Links = make([]service.LinkSnapshot, 0, len(links))
	for _, l := range links {
		g.Links = append(g.Links, l)
	}
	sort.Slice(g.Links, func(i, j int) bool {
		if g.Links[i].FromFn != g.Links[j].FromFn {
			return g.Links[i].FromFn < g.Links[j].FromFn
		}
		return g.Links[i].ToFn < g.Links[j].ToFn
	})
	return g
}

// randomShape draws a function graph: a chain, a fork, a join or a diamond,
// chains with a commutation link so that several patterns exist.
func randomShape(rng *rand.Rand, names []string) *fgraph.Graph {
	b := fgraph.NewBuilder()
	for _, n := range names {
		b.AddFunction(n)
	}
	switch n := len(names); {
	case n >= 4 && rng.Intn(2) == 0: // diamond, the rest chained behind it
		b.AddDependency(0, 1).AddDependency(0, 2).AddDependency(1, 3).AddDependency(2, 3)
		for i := 4; i < n; i++ {
			b.AddDependency(i-1, i)
		}
	case n >= 3 && rng.Intn(3) == 0: // fork: 0 feeds everything else
		for i := 1; i < n; i++ {
			b.AddDependency(0, i)
		}
	case n >= 3 && rng.Intn(3) == 0: // join: everything feeds the last
		for i := 0; i < n-1; i++ {
			b.AddDependency(i, n-1)
		}
	default:
		for i := 1; i < n; i++ {
			b.AddDependency(i-1, i)
		}
		if n >= 2 {
			a := rng.Intn(n - 1)
			b.AddCommutation(a, a+1)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// randomRecords draws what a collector could hold for req: per pattern and
// branch a few probes (sometimes none, so the pattern is unusable), each
// hop's component out of a small pool per function (so branches disagree on
// shared functions and combinations repeat), availabilities, bandwidths and
// delays out of a few values (so scores tie and some candidates fail to
// qualify), and now and then the same probe twice.
func randomRecords(rng *rand.Rand, e *Engine, req *service.Request, perBranch, pool int) []Probe {
	maxPat := e.primaryPatternCap()
	patterns := req.FGraph.Patterns(maxPat)
	for _, v := range req.Variants {
		patterns = append(patterns, v.Patterns(maxPat)...)
	}
	var records []Probe
	uid := uint64(0)
	for pi, pat := range patterns {
		for _, br := range pat.Branches(maxBranches) {
			n := rng.Intn(perBranch + 1)
			for k := 0; k < n; k++ {
				uid++
				r := Probe{ReqID: req.ID, Req: req, PatternIdx: pi, Pattern: pat, UID: uid}
				prev := -1
				for _, fn := range br {
					name := pat.Function(fn)
					var avail qos.Resources
					avail[qos.CPU] = float64(5 * (1 + rng.Intn(3)))
					avail[qos.Memory] = float64(50 * rng.Intn(3)) // 0 disqualifies
					r.Visited = append(r.Visited, Hop{
						Fn: fn,
						Snap: service.Snapshot{
							Comp:  service.Component{ID: fmt.Sprintf("p%d/%s", rng.Intn(pool), name), Function: name},
							Avail: avail,
							Util:  float64(rng.Intn(3)) / 4,
						},
						In: service.LinkSnapshot{FromFn: prev, ToFn: fn, BandAvail: float64(50 * (1 + rng.Intn(4))), Latency: 1},
					})
					prev = fn
				}
				r.Egress = service.LinkSnapshot{FromFn: prev, ToFn: -1, BandAvail: float64(50 * (1 + rng.Intn(4))), Latency: 1}
				r.QoS[qos.Delay] = float64(100 * (1 + rng.Intn(6)))
				records = append(records, r)
				if rng.Intn(8) == 0 {
					records = append(records, r) // a duplicated report copy
				}
			}
		}
	}
	rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
	return records
}

func TestSelectionMatchesOracle(t *testing.T) {
	_, engines := discoveryRing(1)
	e := engines[0]
	rng := rand.New(rand.NewSource(17))
	catalogue := []string{"a", "b", "c", "d", "e", "f"}
	sawDisagreement, sawCap, sawVariantTier, sawTie := false, false, false, false
	for trial := 0; trial < 400; trial++ {
		e.cfg.SelectByDelay = trial%3 == 1
		e.Load = nil
		if trial%4 == 2 {
			e.Load = awarePlane()
		}
		e.cfg.DisableCommutation = trial%5 == 3
		rng.Shuffle(len(catalogue), func(i, j int) { catalogue[i], catalogue[j] = catalogue[j], catalogue[i] })
		req := &service.Request{ID: uint64(trial + 1), FGraph: randomShape(rng, catalogue[:2+rng.Intn(4)]), Bandwidth: 100}
		req.QoSReq = qos.Unbounded()
		req.QoSReq[qos.Delay] = 500
		req.Res[qos.CPU], req.Res[qos.Memory] = 1, 10
		if trial%3 == 0 {
			req.Variants = []*fgraph.Graph{randomShape(rng, catalogue[1:1+2+rng.Intn(3)])}
		}
		perBranch, pool := 4, 3
		if trial%20 == 7 {
			// One chain, many probes over a wide component pool: far more
			// distinct combinations than maxCandidates.
			req.FGraph, req.Variants = fgraph.Linear(catalogue[:3]...), nil
			perBranch, pool = 900, 8
		}
		records := randomRecords(rng, e, req, perBranch, pool)

		wantAll, want := oracleSelect(e, req, records)
		distinct := e.rank(req, records)
		if distinct != len(wantAll) || len(e.sel.cands) != len(want) {
			t.Fatalf("trial %d: %d distinct and %d qualified candidates, the oracle has %d and %d",
				trial, distinct, len(e.sel.cands), len(wantAll), len(want))
		}
		got := make([]*service.Graph, len(want))
		for i := range got {
			got[i] = e.sel.build(req, records, &e.sel.cands[i])
		}
		for i := range want {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("trial %d: candidate %d is %s, the oracle's is %s", trial, i, got[i].Key(), want[i].Key())
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d: candidate %d differs from the oracle's:\n got %+v\nwant %+v", trial, i, got[i], want[i])
			}
		}

		sawCap = sawCap || len(wantAll) == maxCandidates
		sawDisagreement = sawDisagreement || disagreeing(req, records)
		primary := len(req.FGraph.Patterns(e.primaryPatternCap()))
		for i, g := range want {
			sawVariantTier = sawVariantTier || (g.PatternIdx >= primary && want[0].PatternIdx < primary)
			sawTie = sawTie || (i > 0 && e.score(g, req) == e.score(want[i-1], req))
		}
	}
	// The generator must really have produced the cases the comparison is
	// for; a quiet change to it would otherwise hollow the test out.
	if !sawDisagreement || !sawCap || !sawVariantTier || !sawTie {
		t.Fatalf("cases not covered: disagreeing branches %v, more than maxCandidates %v, variant tier %v, equal scores %v",
			sawDisagreement, sawCap, sawVariantTier, sawTie)
	}
}

// disagreeing reports whether two records of one pattern visit the same
// function at different components, on different branches.
func disagreeing(req *service.Request, records []Probe) bool {
	for i := range records {
		for j := range records[:i] {
			a, b := &records[i], &records[j]
			if a.PatternIdx != b.PatternIdx || reflect.DeepEqual(fnsOf(a), fnsOf(b)) {
				continue
			}
			for _, ha := range a.Visited {
				for _, hb := range b.Visited {
					if ha.Fn == hb.Fn && ha.Snap.Comp.ID != hb.Snap.Comp.ID {
						return true
					}
				}
			}
		}
	}
	return false
}

func fnsOf(r *Probe) []int {
	var out []int
	for _, h := range r.Visited {
		out = append(out, h.Fn)
	}
	return out
}
