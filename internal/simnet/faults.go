package simnet

import (
	"math/rand"
	"time"

	"repro/internal/p2p"
)

// LinkFaults configures fault injection on one directed link: loss and
// duplication probabilities evaluated per message at send time, and a
// uniform latency jitter bound that reorders deliveries.
type LinkFaults struct {
	Loss   float64       // probability the message dies on the wire
	Dup    float64       // probability a second copy is delivered
	Jitter time.Duration // extra one-way latency, uniform in [0, Jitter]
}

func (lf LinkFaults) zero() bool { return lf.Loss == 0 && lf.Dup == 0 && lf.Jitter == 0 }

// merge takes the per-field maximum of two fault configurations — the
// pessimistic union used when a default and per-node entries overlap.
func (lf LinkFaults) merge(o LinkFaults) LinkFaults {
	if o.Loss > lf.Loss {
		lf.Loss = o.Loss
	}
	if o.Dup > lf.Dup {
		lf.Dup = o.Dup
	}
	if o.Jitter > lf.Jitter {
		lf.Jitter = o.Jitter
	}
	return lf
}

// Partition is a named bidirectional cut between two node sets over a time
// window. It activates at From and heals at Until (Until == 0 means the
// partition never heals). Messages crossing the cut while it is active are
// killed at send time.
type Partition struct {
	Name  string
	A, B  []p2p.NodeID
	From  time.Duration // activation (absolute sim time)
	Until time.Duration // heal time; 0 = never
}

// FaultPlan is a deterministic description of every fault the network will
// inject. All randomness comes from a dedicated stream seeded with Seed, so
// fault draws never perturb the simulation's main RNG: the same plan on the
// same workload reproduces byte-identical traces, and changing only Seed
// reshuffles which messages are hit without touching anything else.
//
// Per-link resolution: an exact Links[{from,to}] entry overrides everything
// for that directed link; otherwise the effective faults are the per-field
// maximum of Default, Nodes[from], and Nodes[to].
type FaultPlan struct {
	Seed       int64
	Default    LinkFaults
	Links      map[[2]p2p.NodeID]LinkFaults // directed-link override, wins entirely
	Nodes      map[p2p.NodeID]LinkFaults    // applies to either endpoint
	Partitions []Partition
}

// Empty reports whether the plan injects nothing at all.
func (p FaultPlan) Empty() bool {
	return p.Default.zero() && len(p.Links) == 0 && len(p.Nodes) == 0 && len(p.Partitions) == 0
}

// Shift returns a copy of the plan with every partition's activation and
// heal time offset by d. Plans are usually written relative to t=0; callers
// installing one mid-run shift by the current sim time.
func (p FaultPlan) Shift(d time.Duration) FaultPlan {
	out := p
	out.Partitions = make([]Partition, len(p.Partitions))
	for i, pt := range p.Partitions {
		pt.From += d
		if pt.Until != 0 {
			pt.Until += d
		}
		out.Partitions[i] = pt
	}
	return out
}

// faultState is the installed, runtime form of a FaultPlan: the dedicated
// fault RNG plus per-partition membership sets for O(1) cut checks.
type faultState struct {
	plan  FaultPlan
	frng  *rand.Rand
	parts []partState
}

type partState struct {
	p   Partition
	inA map[p2p.NodeID]bool
	inB map[p2p.NodeID]bool
}

func newFaultState(plan FaultPlan) *faultState {
	fs := &faultState{plan: plan, frng: rand.New(rand.NewSource(plan.Seed))}
	for _, pt := range plan.Partitions {
		ps := partState{p: pt,
			inA: make(map[p2p.NodeID]bool, len(pt.A)),
			inB: make(map[p2p.NodeID]bool, len(pt.B))}
		for _, id := range pt.A {
			ps.inA[id] = true
		}
		for _, id := range pt.B {
			ps.inB[id] = true
		}
		fs.parts = append(fs.parts, ps)
	}
	return fs
}

// link resolves the effective fault configuration for one directed link.
func (fs *faultState) link(from, to p2p.NodeID) LinkFaults {
	if lf, ok := fs.plan.Links[[2]p2p.NodeID{from, to}]; ok {
		return lf
	}
	lf := fs.plan.Default
	lf = lf.merge(fs.plan.Nodes[from])
	lf = lf.merge(fs.plan.Nodes[to])
	return lf
}

// partitioned reports whether an active partition cuts from->to at now.
func (fs *faultState) partitioned(from, to p2p.NodeID, now time.Duration) bool {
	for i := range fs.parts {
		ps := &fs.parts[i]
		if now < ps.p.From || (ps.p.Until != 0 && now >= ps.p.Until) {
			continue
		}
		if (ps.inA[from] && ps.inB[to]) || (ps.inB[from] && ps.inA[to]) {
			return true
		}
	}
	return false
}

// SetFaults installs plan on the network, replacing any previous plan (an
// empty plan clears injection). The fault RNG restarts from plan.Seed, so
// installing the same plan at the same point in two runs keeps them
// byte-identical.
func (nw *Network) SetFaults(plan FaultPlan) {
	if plan.Empty() {
		nw.faults = nil
		return
	}
	nw.faults = newFaultState(plan)
}

// Faulty reports whether an installed plan injects faults: the protocol
// engines on the network are hardened exactly while it does.
func (nw *Network) Faulty() bool { return nw.faults != nil }
