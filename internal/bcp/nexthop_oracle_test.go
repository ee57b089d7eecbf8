package bcp

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// This file keeps the next-hop choice the engine made before it kept only
// the k best — every candidate scored in full from one Path call, then all
// of them sorted by (score, ID) — as the oracle the bounded choice must
// match exactly.

// sortedNextHops is that choice: the first k of every candidate sorted.
func sortedNextHops(e *Engine, cands []*service.Component, k int, req *service.Request) []*service.Component {
	type scored struct {
		c     *service.Component
		score float64
	}
	ss := make([]scored, 0, len(cands))
	for _, c := range cands {
		ss = append(ss, scored{c, fullNextHopScore(e, c, req)})
	}
	slices.SortFunc(ss, func(a, b scored) int {
		if c := cmp.Compare(a.score, b.score); c != 0 {
			return c
		}
		return cmp.Compare(a.c.ID, b.c.ID)
	})
	out := make([]*service.Component, k)
	for i := range out {
		out[i] = ss[i].c
	}
	return out
}

// fullNextHopScore is the composite metric as one fold over one Path call.
func fullNextHopScore(e *Engine, c *service.Component, req *service.Request) float64 {
	lat, band, ok := e.oracle.Path(e.host.ID(), c.Peer)
	score := c.FailProb * 20
	if !ok {
		score += 1e9
	} else {
		score += lat / 50
		if band <= 0 {
			score += 1e9
		} else if req.Bandwidth > 0 {
			score += req.Bandwidth / band
		}
	}
	if e.Load != nil && e.Load.Aware {
		u := e.Load.Oracle.Util(c.Peer)
		if e.Load.Model.Base > 0 {
			score += float64(e.Load.Model.Delay(u)) / float64(50*time.Millisecond)
		} else {
			score += u * 3
		}
	}
	return score
}

// tableOracle answers path questions from per-peer tables, as seen from
// peer 0 (to itself: no latency, unbounded bandwidth), and counts what it
// is asked.
type tableOracle struct {
	lat, band       []float64
	unreachable     []bool
	latReads, walks int
}

func (o *tableOracle) PathLatency(a, b p2p.NodeID) (float64, bool) {
	o.latReads++
	lat, _, ok := o.path(a, b)
	return lat, ok
}

func (o *tableOracle) Path(a, b p2p.NodeID) (float64, float64, bool) {
	o.walks++
	return o.path(a, b)
}

func (o *tableOracle) path(a, b p2p.NodeID) (float64, float64, bool) {
	switch {
	case a == b:
		return 0, math.Inf(1), true
	case o.unreachable[b]:
		return 0, 0, false
	}
	return o.lat[b], o.band[b], true
}

func (o *tableOracle) AllocBandwidth(a, b p2p.NodeID, kbps float64) bool { return true }
func (o *tableOracle) ReleaseBandwidth(a, b p2p.NodeID, kbps float64)    {}

// peerLoad reports a fixed utilization per peer.
type peerLoad []float64

func (l peerLoad) Util(p p2p.NodeID) float64      { return l[p] }
func (l peerLoad) Committed(p p2p.NodeID) float64 { return l[p] }

// TestNextHopChoiceMatchesFullSort: on random candidate sets — scores tied
// and broken by ID, unreachable peers, paths with no bandwidth left, a
// candidate on the hop's own peer, load-aware scoring with and without a
// delay model and none at all — the bounded choice picks the same k in the
// same order as sorting every candidate, for every k below the set's size.
func TestNextHopChoiceMatchesFullSort(t *testing.T) {
	_, engines := discoveryRing(1)
	e := engines[0]
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		peers := 2 + rng.Intn(12)
		o := &tableOracle{lat: make([]float64, peers), band: make([]float64, peers), unreachable: make([]bool, peers)}
		load := make(peerLoad, peers)
		for p := range peers {
			// Few distinct values, so that scores tie.
			o.lat[p] = float64(10 * rng.Intn(4))
			o.band[p] = []float64{-5, 0, 500, 1000, 1000}[rng.Intn(5)]
			o.unreachable[p] = p > 0 && rng.Intn(6) == 0
			load[p] = []float64{0, 0.5, 0.9, 0.99}[rng.Intn(4)]
		}
		e.oracle = o
		switch trial % 3 {
		case 0:
			e.Load = nil
		case 1:
			e.Load = &LoadPlane{LoadOptions: LoadOptions{Aware: true}, Oracle: load}
		case 2:
			e.Load = &LoadPlane{LoadOptions: LoadOptions{Aware: true, Model: qos.DefaultLoadModel()}, Oracle: load}
		}
		req := &service.Request{Bandwidth: []float64{0, 100}[rng.Intn(2)]}
		n := 2 + rng.Intn(20)
		cands := make([]*service.Component, n)
		for i, id := range rng.Perm(n) {
			cands[i] = &service.Component{ID: fmt.Sprintf("c%02d", id), Peer: p2p.NodeID(rng.Intn(peers)),
				FailProb: []float64{0, 0.05, 0.1}[rng.Intn(3)]}
		}
		for k := 1; k < n; k++ {
			want := ids(sortedNextHops(e, cands, k, req))
			got := ids(e.pickNextHop(slices.Clone(cands), k, req))
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, k=%d of %d: chose %v, a full sort %v", trial, k, n, got, want)
			}
		}
	}
}

// TestNextHopBoundSkipsBandwidth: when latencies spread wider than the
// bandwidth term, the bound settles most candidates on their latency alone,
// so most never have their path walked for its bandwidth.
func TestNextHopBoundSkipsBandwidth(t *testing.T) {
	_, engines := discoveryRing(1)
	e := engines[0]
	rng := rand.New(rand.NewSource(12))
	const peers, n, k = 65, 64, 4
	o := &tableOracle{lat: make([]float64, peers), band: make([]float64, peers), unreachable: make([]bool, peers)}
	e.oracle = o
	req := &service.Request{Bandwidth: 100}
	for trial := 0; trial < 50; trial++ {
		for p := range peers {
			o.lat[p] = 5000 * rng.Float64() // a latency term of up to 100
			o.band[p] = 100 + 900*rng.Float64()
		}
		cands := make([]*service.Component, n)
		for i := range cands {
			cands[i] = &service.Component{ID: fmt.Sprintf("c%02d", i), Peer: p2p.NodeID(1 + i)}
		}
		want := ids(sortedNextHops(e, cands, k, req))
		o.latReads, o.walks = 0, 0
		if got := ids(e.pickNextHop(cands, k, req)); !slices.Equal(got, want) {
			t.Fatalf("trial %d: chose %v, a full sort %v", trial, got, want)
		}
		if o.latReads != n || 2*o.walks >= n {
			t.Fatalf("trial %d: %d latency reads and %d bandwidth walks for %d candidates, want %d and fewer than half",
				trial, o.latReads, o.walks, n, n)
		}
	}
}

func ids(cs []*service.Component) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}
