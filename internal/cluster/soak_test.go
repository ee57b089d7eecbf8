package cluster_test

import (
	"testing"
	"time"

	"repro/internal/bcp"
	"repro/internal/cluster"
	"repro/internal/media"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/workload"
)

// TestSoak runs the whole system for 30 simulated minutes under combined
// stress — session workload, periodic churn, dynamic peer arrivals, and
// data-plane streaming — and checks global invariants at the end: every
// session is either alive on live peers or accounted for as dead, no live
// peer leaks resources after teardown, and the deterministic simulator
// never wedges.
func TestSoak(t *testing.T) {
	rc := recovery.DefaultConfig()
	c := cluster.New(cluster.Options{
		Seed: 60, IPNodes: 600, Peers: 80,
		Catalog:  []string{"downscale", "requant", "stock-ticker", "upscale", "subimage"},
		Recovery: &rc,
	})
	gen := workload.NewGenerator(workload.Config{
		Catalog: c.FunctionsByReplicas(), Peers: 80,
		MinFuncs: 2, MaxFuncs: 3, Budget: 30,
		DelayReqMin: 3000, DelayReqMax: 8000, FailReq: 0.03,
	}, c.Rng)

	const wantSessions = 20
	var reqs []*workloadRequest
	established := 0
	framesOut, framesIn := 0, 0

	establish := func() {
		req := gen.Next()
		p := c.Peers[int(req.Source)]
		if !c.Net.Alive(req.Source) || !c.Net.Alive(req.Dest) {
			return
		}
		p.Engine.Compose(req, func(r bcp.Result) {
			if !r.Ok {
				return
			}
			p.Recovery.Establish(req, r)
			established++
			reqs = append(reqs, &workloadRequest{req: req})
			// The receiver counts frames for the whole soak.
			c.Peers[int(req.Dest)].Media.OnDeliver(func(media.Frame) { framesIn++ })
		})
	}
	for i := 0; i < wantSessions; i++ {
		establish()
	}
	c.Sim.Run(30 * time.Second)

	horizon := 30 * time.Minute
	for minute := time.Duration(1); minute <= horizon/time.Minute*time.Minute; minute += time.Minute {
		minute := minute
		c.Sim.Schedule(30*time.Second+minute-c.Sim.Now(), func() {
			// Churn: 2% fail, recover two minutes later.
			for _, id := range c.FailFraction(0.02) {
				id := id
				c.Sim.Schedule(2*time.Minute, func() { c.Net.Recover(id) })
			}
			// Occasionally a new peer arrives.
			if int(minute/time.Minute)%7 == 0 {
				for b := 0; b < 80; b++ {
					if c.Net.Alive(p2p.NodeID(b)) {
						c.Join([]string{"requant"}, p2p.NodeID(b))
						break
					}
				}
			}
			// Stream a frame through every live session.
			for _, s := range reqs {
				req := s.req
				if !c.Net.Alive(req.Source) {
					continue
				}
				mgr := c.Peers[int(req.Source)].Recovery
				if sess := mgr.Session(req.ID); sess != nil {
					framesOut++
					c.Peers[int(req.Source)].Media.SendFrame(sess.Active, media.NewFrame(framesOut, 320, 240))
				}
			}
			// Keep the population topped up.
			live := 0
			for _, s := range reqs {
				if c.Net.Alive(s.req.Source) && c.Peers[int(s.req.Source)].Recovery.Session(s.req.ID) != nil {
					live++
				}
			}
			for i := live; i < wantSessions; i++ {
				establish()
			}
		})
	}
	c.Sim.Run(30*time.Second + horizon + 5*time.Minute)

	if established < wantSessions {
		t.Fatalf("only %d sessions ever established", established)
	}
	if framesOut == 0 || framesIn == 0 {
		t.Fatalf("streaming dead: out=%d in=%d", framesOut, framesIn)
	}
	// Most injected frames arrive (sessions break mid-flight occasionally).
	if float64(framesIn) < 0.6*float64(framesOut) {
		t.Fatalf("frame delivery too lossy: %d/%d", framesIn, framesOut)
	}

	// After closing every surviving session and letting timers expire, no
	// LIVE peer may hold any allocation.
	for _, s := range reqs {
		if c.Net.Alive(s.req.Source) {
			c.Peers[int(s.req.Source)].Recovery.Close(s.req.ID)
		}
	}
	c.Sim.Run(c.Sim.Now() + 2*time.Minute)
	for i, p := range c.Peers {
		if !c.Net.Alive(p2p.NodeID(i)) {
			continue
		}
		if got := p.Ledger.SoftAllocated(); got != (qos.Resources{}) {
			t.Fatalf("peer %d leaks soft %v after soak", i, got)
		}
	}
	// Recovery did real work during the soak.
	totalSwitch, totalDead := 0, 0
	for _, p := range c.Peers {
		if p.Recovery != nil {
			st := p.Recovery.Stats()
			totalSwitch += st.Switchovers + st.Reactives
			totalDead += st.Dead
		}
	}
	if totalSwitch == 0 {
		t.Fatal("churn caused no recoveries in 30 minutes")
	}
	t.Logf("soak: %d sessions established, %d recoveries, %d dead, frames %d/%d",
		established, totalSwitch, totalDead, framesIn, framesOut)
}

type workloadRequest struct {
	req *service.Request
}
