package federation

import (
	"fmt"
	"testing"

	"repro/internal/fgraph"
	"repro/internal/qos"
	"repro/internal/service"
)

// splitter returns domain d's coordinator over a three-domain plan, knowing
// the providers of each function in remote (sorted domains), without a host:
// split reads only the plan and what the domains advertised.
func splitter(t *testing.T, d int, remote map[string][]int) *Coordinator {
	t.Helper()
	plan, err := (&Spec{Domains: 3}).Plan(30)
	if err != nil {
		t.Fatal(err)
	}
	return &Coordinator{domain: d, plan: plan, remote: remote}
}

func chainRequest(fns ...string) *service.Request {
	return &service.Request{ID: 1, FGraph: fgraph.Linear(fns...), QoSReq: qos.Unbounded(), Budget: 24}
}

// TestSplitAcceptsExactlyMaxSegments: a chain whose functions alternate
// between two domains splits into one segment per function, accepted up to
// maxSegments segments and refused at one more.
func TestSplitAcceptsExactlyMaxSegments(t *testing.T) {
	remote := map[string][]int{}
	var fns []string
	for i := 0; i <= maxSegments; i++ {
		fn := fmt.Sprintf("f%d", i)
		remote[fn] = []int{i % 2}
		fns = append(fns, fn)
	}
	c := splitter(t, 2, remote)
	segs, ok := c.split(chainRequest(fns[:maxSegments]...))
	if !ok || len(segs) != maxSegments {
		t.Fatalf("a %d-segment chain: ok=%v, %d segments; want it accepted whole", maxSegments, ok, len(segs))
	}
	if _, ok := c.split(chainRequest(fns...)); ok {
		t.Fatalf("a %d-segment chain was accepted, want it refused", maxSegments+1)
	}
}

// TestSplitKeepsDomainZeroForTheNextFunction: a function provided by the
// previous function's domain stays there when that domain is 0, even though
// the coordinator's own domain provides it too.
func TestSplitKeepsDomainZeroForTheNextFunction(t *testing.T) {
	c := splitter(t, 1, map[string][]int{"a": {0}, "b": {0, 1}})
	segs, ok := c.split(chainRequest("a", "b"))
	if !ok || len(segs) != 1 || segs[0].domain != 0 || segs[0].sub.FGraph.NumFunctions() != 2 {
		t.Fatalf("split a (domain 0 only), b (domains 0 and 1) from domain 1: ok=%v, %+v; want one segment in domain 0", ok, segs)
	}
}

// TestSingleDomainPrefersTheOrigin pins where an unsplittable request goes:
// to the coordinator's own domain when it provides every function, even
// with a lower-numbered domain that does too; else to the lowest-numbered
// domain that provides every function, never to one that provides only
// some; and nowhere when none provides them all.
func TestSingleDomainPrefersTheOrigin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		origin int
		remote map[string][]int
		want   int
		ok     bool
	}{
		{"the origin provides all", 2, map[string][]int{"a": {0, 1, 2}, "b": {0, 1, 2}}, 2, true},
		{"the lowest domain that provides all", 2, map[string][]int{"a": {0, 1, 2}, "b": {1}}, 1, true},
		{"the lowest of two that provide all", 1, map[string][]int{"a": {0, 2}, "b": {0, 1, 2}}, 0, true},
		{"none provides all", 0, map[string][]int{"a": {0, 1}, "b": {2}}, -1, false},
	} {
		c := splitter(t, tc.origin, tc.remote)
		if got, ok := c.singleDomain([]string{"a", "b"}); got != tc.want || ok != tc.ok {
			t.Errorf("%s: singleDomain from domain %d = %d, %v; want %d, %v", tc.name, tc.origin, got, ok, tc.want, tc.ok)
		}
	}
}
