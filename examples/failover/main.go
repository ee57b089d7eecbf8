// Failover: proactive failure recovery (§5) under churn. A long-lived
// streaming session is established with backup service graphs; peers
// hosting its components are then killed one by one, and the session
// repairs itself by switching to overlapping backups — falling back to a
// reactive re-composition only when the backups are exhausted.
package main

import (
	"fmt"
	"strings"
	"time"

	spidernet "repro"
)

func main() {
	// Each recovery outcome is a rec.switchover, rec.reactive or rec.dead
	// trace event; keep them to print under the summary.
	var outcomes []spidernet.TraceEvent
	net := spidernet.NewSim(spidernet.SimOptions{
		Seed:     11,
		Peers:    100,
		Recovery: true, // attach the proactive failure recovery manager
		Trace: spidernet.TracerFunc(func(ev spidernet.TraceEvent) {
			switch ev.Kind {
			case "rec.switchover", "rec.reactive", "rec.dead":
				outcomes = append(outcomes, ev)
			}
		}),
	})
	fns := net.Functions()[:3]

	req := spidernet.NewRequest().
		Functions(fns...).
		MaxDelay(5*time.Second).
		FailureBound(0.02). // tight F^req -> more backups via Eq. 2
		Budget(60).         // generous budget -> rich backup pool
		Between(0, 1).
		MustBuild()

	res := net.Compose(req)
	if !res.Ok {
		fmt.Println("composition failed")
		return
	}
	if err := net.Establish(req, res); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("session up: %s\n", res.Best)
	fmt.Printf("qualified backups found by BCP: %d\n\n", len(res.Backups))

	// Kill component peers of the CURRENT graph, one per round.
	for round := 1; round <= 4; round++ {
		g := net.ActiveGraph(req.Source, req.ID)
		if g == nil {
			fmt.Printf("round %d: session is dead\n", round)
			break
		}
		victim := spidernet.PeerID(-1)
		for _, c := range g.Components() {
			if c.Peer != req.Source && c.Peer != req.Dest {
				victim = c.Peer
				break
			}
		}
		if victim == -1 {
			break
		}
		fmt.Printf("round %d: killing peer %d (hosts a component of the active graph)\n", round, victim)
		net.FailPeer(victim)
		net.RunFor(30 * time.Second) // detection + switchover happen here

		if g2 := net.ActiveGraph(req.Source, req.ID); g2 != nil {
			fmt.Printf("  recovered -> %s\n", g2)
		}
	}

	st := net.RecoveryStatsFor(req.Source)
	fmt.Printf("\nrecovery summary: detected=%d switchovers=%d reactive=%d unrecovered=%d\n",
		st.FailuresDetected, st.Switchovers, st.Reactives, st.Dead)
	for _, ev := range outcomes {
		if ev.Node == req.Source && ev.Req == req.ID {
			fmt.Printf("  t=%-8v %-11s recovery-time=%v\n",
				ev.TS.Round(time.Millisecond), strings.TrimPrefix(ev.Kind, "rec."), ev.Dur.Round(time.Millisecond))
		}
	}
}
