package simnet

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/kvspec"
	"repro/internal/p2p"
)

// FaultSpec is the compact command-line form of a fault plan, as accepted
// by the -faults flag:
//
//	loss=0.05,dup=0.01,jitter=20ms,partition=10s@30s,seed=3
//
// Keys may appear in any order, each at most once. loss and dup are
// probabilities in [0, 1] applied to every link; jitter is the uniform
// extra-latency bound; partition=<dur>@<at> cuts the peer set in half at
// <at> for <dur> (the "@<at>" part defaults to 0); seed isolates the fault
// RNG stream. String renders the canonical form (fixed key order, defaults
// omitted), and Plan expands the spec into a FaultPlan over a peer set.
type FaultSpec struct {
	Loss    float64
	Dup     float64
	Jitter  time.Duration
	PartDur time.Duration // half/half partition length; 0 = no partition
	PartAt  time.Duration // partition activation time
	Seed    int64
}

var faultGrammar = kvspec.Grammar{
	Name:    "fault spec",
	Example: "loss=0.05,jitter=20ms,partition=10s@30s",
	Keys:    []string{"loss", "dup", "jitter", "partition", "seed"},
}

// ParseFaultSpec parses the -faults grammar. The empty string is an error —
// "no faults" is expressed by not passing the flag at all.
func ParseFaultSpec(s string) (*FaultSpec, error) {
	spec := &FaultSpec{}
	err := faultGrammar.Parse(s, func(key, val string) (err error) {
		switch key {
		case "loss":
			spec.Loss, err = kvspec.ParseProb(key, val)
		case "dup":
			spec.Dup, err = kvspec.ParseProb(key, val)
		case "jitter":
			spec.Jitter, err = kvspec.ParseDur(key, val)
		case "partition":
			durStr, atStr, hasAt := strings.Cut(val, "@")
			if spec.PartDur, err = time.ParseDuration(durStr); err != nil {
				return fmt.Errorf("partition=%q: bad duration: %v", val, err)
			}
			if spec.PartDur <= 0 {
				return fmt.Errorf("partition=%v: duration must be positive", spec.PartDur)
			}
			if !hasAt {
				return nil
			}
			if spec.PartAt, err = time.ParseDuration(atStr); err != nil {
				return fmt.Errorf("partition=%q: bad activation time: %v", val, err)
			}
			if spec.PartAt < 0 {
				return fmt.Errorf("partition=%q: negative activation time", val)
			}
		case "seed":
			spec.Seed, err = kvspec.ParseInt(key, val)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return spec, nil
}

// String renders the canonical spec: fixed key order, zero-valued keys
// omitted. ParseFaultSpec(s.String()) reproduces s for any spec with at
// least one non-zero field.
func (s *FaultSpec) String() string {
	part := kvspec.Dur(s.PartDur)
	if part != "" && s.PartAt != 0 {
		part += "@" + s.PartAt.String()
	}
	return faultGrammar.String(kvspec.Float(s.Loss), kvspec.Float(s.Dup), kvspec.Dur(s.Jitter), part, kvspec.Int(s.Seed))
}

// Plan expands the spec into a FaultPlan over peers: loss/dup/jitter become
// the every-link default, and the partition (if any) cuts the first half of
// peers from the second. Partition times are relative to t=0; shift the
// plan (or use Cluster.ApplyFaults) when installing mid-run.
func (s *FaultSpec) Plan(peers []p2p.NodeID) FaultPlan {
	plan := FaultPlan{
		Seed:    s.Seed,
		Default: LinkFaults{Loss: s.Loss, Dup: s.Dup, Jitter: s.Jitter},
	}
	if s.PartDur > 0 && len(peers) >= 2 {
		half := len(peers) / 2
		plan.Partitions = []Partition{{
			Name:  "spec",
			A:     append([]p2p.NodeID(nil), peers[:half]...),
			B:     append([]p2p.NodeID(nil), peers[half:]...),
			From:  s.PartAt,
			Until: s.PartAt + s.PartDur,
		}}
	}
	return plan
}
