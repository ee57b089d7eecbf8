// Package service models the concrete side of composition: service
// components hosted on peers (§2.2), composite service requests, and service
// graphs λ — assignments of function-graph nodes to components together with
// the QoS/resource state snapshots collected by composition probes. It also
// implements the cost aggregation function ψ (Eq. 1) used for load-balanced
// optimal composition selection (§4.3).
package service

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fgraph"
	"repro/internal/p2p"
	"repro/internal/qos"
)

// FormatAny is the wildcard media format: a component with InFormat
// FormatAny accepts any input, and with OutFormat FormatAny preserves its
// input format.
const FormatAny = 0

// Component is the static metadata of one service component: what function
// it provides, where it lives, its performance quality Qp, its resource
// requirement R, and its input/output quality formats (the Qin/Qout of the
// paper, reduced to a format tag). This is exactly what the decentralized
// service discovery stores in the DHT.
type Component struct {
	ID        string        // globally unique, e.g. "p12/upscale.0"
	Function  string        // provided function name
	Peer      p2p.NodeID    // hosting peer
	Qp        qos.Vector    // performance quality added per traversal (e.g. service delay)
	Res       qos.Resources // end-system resources consumed per session
	InFormat  int           // accepted input format (FormatAny = wildcard)
	OutFormat int           // produced output format (FormatAny = passthrough)
	FailProb  float64       // estimated failure probability of the hosting peer
}

// Compatible reports whether next can consume prev's output: the formats
// must match unless either side is a wildcard.
func Compatible(prev, next Component) bool {
	if prev.OutFormat == FormatAny || next.InFormat == FormatAny {
		return true
	}
	return prev.OutFormat == next.InFormat
}

// Request is a composite service request: the function graph, the user's
// QoS/resource requirements, endpoints, and the probing budget β that bounds
// BCP's overhead (§4.1).
type Request struct {
	ID        uint64
	FGraph    *fgraph.Graph
	QoSReq    qos.Vector    // multi-constrained QoS requirement Qreq
	Res       qos.Resources // per-component end-system resource requirement
	Bandwidth float64       // kbps required on every service link
	FailReq   float64       // required session failure probability F^req
	Source    p2p.NodeID    // application sender
	Dest      p2p.NodeID    // application receiver

	Budget      int   // probing budget β (number of probes)
	Quota       []int // per-function probing quota α; nil = replica-proportional default
	MaxPatterns int   // cap on commutation-induced patterns; 0 = default

	// Variants are alternative function graphs that also satisfy the user
	// (the paper's future-work "more expressive composition semantics such
	// as conditional branch", §8): BCP probes FGraph and every variant and
	// selects the best qualified graph across all of them. Each variant is
	// validated like FGraph. Quota must be nil when variants are used.
	Variants []*fgraph.Graph
}

// Validate checks structural sanity of the request.
func (r *Request) Validate() error {
	if r.FGraph == nil || r.FGraph.NumFunctions() == 0 {
		return fmt.Errorf("request %d: empty function graph", r.ID)
	}
	if r.Budget < 1 {
		return fmt.Errorf("request %d: probing budget %d < 1", r.ID, r.Budget)
	}
	if r.Quota != nil && len(r.Quota) != r.FGraph.NumFunctions() {
		return fmt.Errorf("request %d: quota length %d != %d functions",
			r.ID, len(r.Quota), r.FGraph.NumFunctions())
	}
	if len(r.Variants) > 0 && r.Quota != nil {
		return fmt.Errorf("request %d: per-function quotas are ambiguous across variants", r.ID)
	}
	for i, v := range r.Variants {
		if v == nil || v.NumFunctions() == 0 {
			return fmt.Errorf("request %d: variant %d is empty", r.ID, i)
		}
	}
	if !r.Res.NonNegative() || r.Bandwidth < 0 {
		return fmt.Errorf("request %d: negative resource requirement", r.ID)
	}
	return nil
}

// Weights parameterizes the cost aggregation function ψ: one weight per
// end-system resource type plus one for bandwidth (the n+1'th term of
// Eq. 1). Weights should sum to 1; Normalize enforces it.
type Weights struct {
	Res       [qos.NumResources]float64
	Bandwidth float64
}

// DefaultWeights returns uniform weights 1/(n+1) over the n end-system
// resource types and bandwidth.
func DefaultWeights() Weights {
	var w Weights
	u := 1.0 / float64(qos.NumResources+1)
	for i := range w.Res {
		w.Res[i] = u
	}
	w.Bandwidth = u
	return w
}

// Normalize scales the weights to sum to 1. All-zero weights become
// DefaultWeights.
func (w Weights) Normalize() Weights {
	sum := w.Bandwidth
	for _, x := range w.Res {
		sum += x
	}
	if sum <= 0 {
		return DefaultWeights()
	}
	for i := range w.Res {
		w.Res[i] /= sum
	}
	w.Bandwidth /= sum
	return w
}

// Snapshot is one probed hop: the chosen component and its hosting peer's
// resource availability at probe time.
type Snapshot struct {
	Comp  Component
	Avail qos.Resources // availability ra^vj recorded by the probe
	// Util is the hosting peer's scalar utilization (hard allocations over
	// capacity, in [0,1]) at probe time, the load figure the overload
	// control plane folds into selection.
	Util float64
}

// LinkSnapshot is one probed service link: the functions it connects
// (FromFn == -1 for the source ingress, ToFn == -1 for the destination
// egress) and the bottleneck bandwidth available on the underlying overlay
// path at probe time.
type LinkSnapshot struct {
	FromFn    int
	ToFn      int
	BandAvail float64 // ba^℘j, kbps
	Latency   float64 // overlay path latency, ms
}

// Compare orders links by (FromFn, ToFn), the order Graph.Links is kept in
// so that ψ's bandwidth term folds identically wherever a graph was built.
func (l LinkSnapshot) Compare(o LinkSnapshot) int {
	if c := cmp.Compare(l.FromFn, o.FromFn); c != 0 {
		return c
	}
	return cmp.Compare(l.ToFn, o.ToFn)
}

// Graph is a service graph λ: one composition pattern with every function
// node mapped to a concrete component, plus the QoS and resource snapshots
// the probes collected along the way. Before selection it is a candidate;
// after selection it is the session's active (or backup) service graph.
type Graph struct {
	Pattern *fgraph.Graph
	Comps   map[int]Snapshot // function index -> probed assignment
	Links   []LinkSnapshot
	QoS     qos.Vector // accumulated end-to-end QoS (branch-wise max)

	// PatternIdx records which composition pattern this graph instantiates
	// (indices past the primary graph's patterns belong to request
	// variants, which selection treats as fallbacks).
	PatternIdx int

	// Req is the request this graph serves, attached at selection time so
	// that session setup, teardown, and failure recovery know the
	// per-component requirements without a side channel.
	Req *Request
}

// fns appends the assigned function indices to buf in ascending order — the
// one iteration order every float fold and every rendering of a graph uses,
// because map order would differ between identically seeded runs. Callers
// pass a small stack buffer, so graphs of ordinary size cost no allocation.
func (g *Graph) fns(buf []int) []int {
	for i := range g.Comps {
		buf = append(buf, i)
	}
	slices.Sort(buf)
	return buf
}

// fnsBuf is the size of the stack buffer handed to fns: requests compose a
// handful of functions, larger graphs spill to the heap.
const fnsBuf = 16

// Key returns a canonical signature of the graph: its composition pattern
// plus the component assignment. Two graphs over different patterns (e.g.
// the two orders of a commutation link) are distinct even with identical
// assignments, because the execution order differs.
func (g *Graph) Key() string {
	var buf [128]byte
	dst := buf[:0]
	if g.Pattern != nil {
		dst = append(g.Pattern.AppendString(dst), '|')
	}
	return string(g.AppendAssignment(dst))
}

// AppendAssignment appends the assignment half of Key ("fn=component;" in
// function order) to dst and returns the extended buffer. Selection renders
// a pattern once and then one assignment per candidate behind it.
func (g *Graph) AppendAssignment(dst []byte) []byte {
	var buf [fnsBuf]int
	for _, i := range g.fns(buf[:0]) {
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, '=')
		dst = append(dst, g.Comps[i].Comp.ID...)
		dst = append(dst, ';')
	}
	return dst
}

// Components returns the assigned components in function-index order.
func (g *Graph) Components() []Component {
	var buf [fnsBuf]int
	idx := g.fns(buf[:0])
	out := make([]Component, len(idx))
	for k, i := range idx {
		out[k] = g.Comps[i].Comp
	}
	return out
}

// Contains reports whether the graph uses the component with the given ID.
func (g *Graph) Contains(componentID string) bool {
	for _, s := range g.Comps {
		if s.Comp.ID == componentID {
			return true
		}
	}
	return false
}

// ContainsPeer reports whether any assigned component is hosted on peer p.
func (g *Graph) ContainsPeer(p p2p.NodeID) bool {
	for _, s := range g.Comps {
		if s.Comp.Peer == p {
			return true
		}
	}
	return false
}

// Overlap counts the components g shares with o — the quantity the backup
// selection maximizes for fast switchover (§5.2).
func (g *Graph) Overlap(o *Graph) int {
	ids := make(map[string]bool, len(o.Comps))
	for _, s := range o.Comps {
		ids[s.Comp.ID] = true
	}
	n := 0
	for _, s := range g.Comps {
		if ids[s.Comp.ID] {
			n++
		}
	}
	return n
}

// FailProb estimates the service graph's failure probability under
// independent peer failures: 1 - Π(1 - p_i) over the distinct hosting peers.
func (g *Graph) FailProb() float64 {
	seen := make(map[p2p.NodeID]float64)
	peers := make([]p2p.NodeID, 0, len(g.Comps))
	for _, s := range g.Comps {
		if p, ok := seen[s.Comp.Peer]; !ok || s.Comp.FailProb > p {
			if !ok {
				peers = append(peers, s.Comp.Peer)
			}
			seen[s.Comp.Peer] = s.Comp.FailProb
		}
	}
	// Multiply in sorted peer order: float rounding depends on operation
	// order, and map iteration would make the product run-dependent.
	slices.Sort(peers)
	alive := 1.0
	for _, p := range peers {
		alive *= 1 - seen[p]
	}
	return 1 - alive
}

// Qualified reports whether the graph satisfies the request: complete
// assignment, QoS within Qreq, per-component resources within the probed
// availability, and bandwidth within every probed link's availability.
func (g *Graph) Qualified(req *Request) bool {
	if len(g.Comps) != g.Pattern.NumFunctions() {
		return false
	}
	if !g.QoS.Satisfies(req.QoSReq) {
		return false
	}
	for _, s := range g.Comps {
		if !req.Res.Fits(s.Avail) {
			return false
		}
	}
	for _, l := range g.Links {
		if l.BandAvail < req.Bandwidth {
			return false
		}
	}
	return true
}

// Cost evaluates the cost aggregation function ψ of Eq. 1:
//
//	ψ(λ) = Σ_{sj∈λ} Σ_i w_i · r_i^{sj}/ra_i^{vj}  +  w_{n+1} · Σ_{ℓj∈λ} b_{ℓj}/ba_{℘j}
//
// Smaller ψ means the available resources exceed the requirement by a larger
// margin, so the minimum-ψ qualified graph achieves the best load balancing.
// Hops with zero availability yield +Inf.
func (g *Graph) Cost(w Weights, req *Request) float64 {
	w = w.Normalize()
	var cost float64
	var buf [fnsBuf]int
	for _, fn := range g.fns(buf[:0]) {
		s := g.Comps[fn]
		for i := range s.Avail {
			if req.Res[i] == 0 {
				continue
			}
			if s.Avail[i] <= 0 {
				return math.Inf(1)
			}
			cost += w.Res[i] * req.Res[i] / s.Avail[i]
		}
	}
	if req.Bandwidth > 0 {
		for _, l := range g.Links {
			if l.BandAvail <= 0 {
				return math.Inf(1)
			}
			cost += w.Bandwidth * req.Bandwidth / l.BandAvail
		}
	}
	return cost
}

// String renders the assignment compactly, e.g. "f0→p3/scale.0 f1→p9/tick.1".
func (g *Graph) String() string {
	var buf [fnsBuf]int
	var b strings.Builder
	for k, i := range g.fns(buf[:0]) {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s→%s", g.Pattern.Function(i), g.Comps[i].Comp.ID)
	}
	return b.String()
}
