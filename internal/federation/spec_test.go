package federation

import (
	"strings"
	"testing"
	"time"

	"repro/internal/p2p"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"domains=2",
		"domains=4,gateways=2",
		"domains=3,gateways=1,hold=10s,life=30s",
		"domains=8,hold=1m30s",
	}
	for _, in := range cases {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		if got := s.String(); got != in {
			t.Errorf("ParseSpec(%q).String() = %q", in, got)
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", s.String(), err)
		}
		if *again != *s {
			t.Errorf("round trip of %q changed the spec: %+v vs %+v", in, again, s)
		}
	}
}

// TestParseSpecErrors covers the domain schema's own value rules; the
// tokenizer's (empty spec, key=value shape, duplicate and unknown keys, key
// order) are pinned for every grammar by kvspec's TestTokenizerConformance.
func TestParseSpecErrors(t *testing.T) {
	cases := map[string]string{
		"domains=1":             "at least 2",
		"domains=x":             "invalid",
		"gateways=0,domains=2":  "at least 1",
		"gateways=2":            "missing required key domains",
		"domains=2,hold=-5s":    "negative",
		"domains=2,life=potato": "invalid",
	}
	for in, want := range cases {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q): expected error", in)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSpec(%q) error %q does not mention %q", in, err, want)
		}
	}
}

func TestPlanPartitionsPeers(t *testing.T) {
	s := &Spec{Domains: 3, Gateways: 2}
	p, err := s.Plan(20)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumDomains != 3 || p.NumGateways != 2 {
		t.Fatalf("plan shape: %+v", p)
	}
	total := 0
	for d, members := range p.Members {
		total += len(members)
		if len(members) < 3 {
			t.Errorf("domain %d has %d members, want >= gateways+1", d, len(members))
		}
		for _, id := range members {
			if p.Of(id) != d {
				t.Errorf("Of(%d) = %d, want %d", id, p.Of(id), d)
			}
		}
		if gw := p.Gateways(d); len(gw) != 2 || gw[0] != members[0] {
			t.Errorf("domain %d gateways %v", d, gw)
		}
		if p.Coordinator(d) != members[0] {
			t.Errorf("domain %d coordinator %d, want %d", d, p.Coordinator(d), members[0])
		}
	}
	if total != 20 {
		t.Errorf("members cover %d peers, want 20", total)
	}
	if p.Of(-1) != -1 || p.Of(99) != -1 {
		t.Error("Of outside the peer set should be -1")
	}
}

// TestBlocksPartitionProperties: for every peer count up to 200 and every
// domain count a one-gateway spec admits, the domains are contiguous, cover
// 0..n-1 exactly once, differ in size by at most one — the larger ones first —
// and agree with Of.
func TestBlocksPartitionProperties(t *testing.T) {
	for n := 4; n <= 200; n++ {
		for k := 2; 2*k <= n; k++ {
			p, err := (&Spec{Domains: k}).Plan(n)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			next, minSize, maxSize := 0, n, 0
			for d, members := range p.Members {
				if len(members) > minSize {
					t.Fatalf("n=%d k=%d: domain %d of %d peers follows one of %d", n, k, d, len(members), minSize)
				}
				minSize, maxSize = min(minSize, len(members)), max(maxSize, len(members))
				for _, id := range members {
					if int(id) != next || p.Of(id) != d {
						t.Fatalf("n=%d k=%d: domain %d holds %d (Of says %d) where %d is next", n, k, d, id, p.Of(id), next)
					}
					next++
				}
			}
			if len(p.Members) != k || next != n || maxSize-minSize > 1 {
				t.Fatalf("n=%d k=%d: %d domains of %d..%d peers cover %d", n, k, len(p.Members), minSize, maxSize, next)
			}
			if p.Of(-1) != -1 || p.Of(p2p.NodeID(n)) != -1 {
				t.Fatalf("n=%d k=%d: Of outside the peer set is not -1", n, k)
			}
		}
	}
}

func TestPlanTooFewPeers(t *testing.T) {
	s := &Spec{Domains: 4, Gateways: 2}
	if _, err := s.Plan(8); err == nil {
		t.Error("8 peers cannot host 4 domains of 2 gateways each")
	}
}

func TestCatalogForShards(t *testing.T) {
	s := &Spec{Domains: 3}
	p, err := s.Plan(9)
	if err != nil {
		t.Fatal(err)
	}
	catalog := []string{"a", "b", "c", "d", "e", "f", "g"}
	seen := make(map[string]int)
	for d := 0; d < 3; d++ {
		for _, fn := range p.CatalogFor(d, catalog) {
			seen[fn]++
		}
	}
	if len(seen) != len(catalog) {
		t.Errorf("shards cover %d of %d functions", len(seen), len(catalog))
	}
	for fn, n := range seen {
		if n != 1 {
			t.Errorf("function %s homed in %d domains", fn, n)
		}
	}
}

func TestDomainPartitionCutsDomain(t *testing.T) {
	s := &Spec{Domains: 2}
	p, err := s.Plan(10)
	if err != nil {
		t.Fatal(err)
	}
	part := p.DomainPartition(0, time.Second, 2*time.Second)
	if len(part.A)+len(part.B) != 10 {
		t.Errorf("partition covers %d peers, want 10", len(part.A)+len(part.B))
	}
	if part.From != time.Second || part.Until != 2*time.Second {
		t.Errorf("partition window %v..%v", part.From, part.Until)
	}
}

func TestSubIDNamespace(t *testing.T) {
	id := SubID(123, 7)
	if id < subIDBase {
		t.Errorf("SubID(123,7)=%d below namespace base", id)
	}
	if got := SubID(123, 7); got != id {
		t.Error("SubID not deterministic")
	}
	if SubID(123, 7) == SubID(123, 8) || SubID(123, 7) == SubID(124, 7) {
		t.Error("SubID collisions across segments/requests")
	}
}

func TestConfigDrainCoversTTL(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Drain() <= cfg.CommitTTL() {
		t.Errorf("Drain %v must exceed CommitTTL %v", cfg.Drain(), cfg.CommitTTL())
	}
	if cfg.CommitTTL() <= cfg.Hold+cfg.Life {
		t.Errorf("CommitTTL %v must exceed hold+life %v", cfg.CommitTTL(), cfg.Hold+cfg.Life)
	}
}
