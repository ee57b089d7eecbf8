package recovery_test

import (
	"testing"

	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
)

// TestSwitchoverTriesOverlapThenCost pins the order tryRecovery tries the
// backups in: the largest overlap with the broken graph first, however
// cheap a graph that shares less; then the lowest cost; and among backups
// equal on both, the first listed. The backup taken is the one no longer
// listed once the switchover walk is sent.
func TestSwitchoverTriesOverlapThenCost(t *testing.T) {
	c := newCluster(36, recovery.DefaultConfig())
	req := makeReq(c, 1, 2, 8)
	// Availability sets a graph's cost: ten CPU units and a hundred of
	// memory cost less than two and twenty.
	graph := func(avail float64, comps ...service.Component) *service.Graph {
		g := synthGraph(1, comps...)
		g.Req = req
		for i := range g.Comps {
			g.Comps[i].Avail[qos.CPU] = avail
			g.Comps[i].Avail[qos.Memory] = 10 * avail
		}
		return g
	}
	active := graph(10, sc("A1", "a", 2, 0.1), sc("B1", "b", 3, 0.1))
	shares := graph(2, sc("A2", "a", 4, 0.1), sc("B1", "b", 3, 0.1))    // overlap 1, dear
	disjoint := graph(10, sc("A3", "a", 5, 0.1), sc("B3", "b", 6, 0.1)) // overlap 0, cheap
	cheap := graph(10, sc("A4", "a", 7, 0.1), sc("B1", "b", 3, 0.1))    // overlap 1, cheap
	same := graph(10, sc("A4", "a", 7, 0.1), sc("B1", "b", 3, 0.1))     // cheap's equal

	mgr := c.Peers[int(req.Source)].Recovery
	for _, tc := range []struct {
		name    string
		backups []*service.Graph
		want    *service.Graph
	}{
		{"overlap before cost", []*service.Graph{disjoint, shares}, shares},
		{"then the lower cost", []*service.Graph{shares, cheap}, cheap},
		{"ties in listed order", []*service.Graph{cheap, same, disjoint}, cheap},
		{"ties in listed order, reversed", []*service.Graph{same, cheap, disjoint}, same},
	} {
		s := &recovery.Session{ID: req.ID, Req: req, Active: active, Backups: append([]*service.Graph(nil), tc.backups...)}
		recovery.TryRecovery(mgr, s)
		for _, g := range s.Backups {
			if g == tc.want {
				t.Errorf("%s: the backup wanted first is still listed; the switchover took another", tc.name)
			}
		}
		if len(s.Backups) != len(tc.backups)-1 {
			t.Errorf("%s: %d backups left of %d, want one taken", tc.name, len(s.Backups), len(tc.backups))
		}
	}
}
