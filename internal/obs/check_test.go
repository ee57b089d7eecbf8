package obs

import (
	"testing"
	"time"
)

// cleanTrace is a minimal invariant-respecting trace: a composition with
// two root probes — one is consumed by splitting into two children (one
// child dies on a QoS check, the other is lost on the wire, matched by a
// net.drop record), the other root completes and returns.
func cleanTrace() []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Event{
		ComposeStart(0, 3, 42, 3, 20),
		ProbeSent(ms(1), 3, 42, 7, "fn1", "p7/fn1.0", 10, 0, 101, 0),
		ProbeSent(ms(1), 3, 42, 6, "fn1", "p6/fn1.2", 10, 0, 104, 0),
		ProbeSent(ms(2), 7, 42, 9, "fn2", "p9/fn2.1", 5, 1, 102, 101),
		ProbeSent(ms(2), 7, 42, 8, "fn2", "p8/fn2.0", 5, 1, 103, 101),
		NetDrop(ms(3), 7, 8, "bcp.probe", 192, 103),
		ProbeDropped(ms(4), 9, 42, "fn2", "p9/fn2.1", "qos", 2, 102),
		ProbeReturned(ms(5), 6, 42, 1, 1, 256, 104),
		SessionAdmit(ms(6), 9, 42, "p9/fn2.1"),
		SessionEstablish(ms(7), 3, 42, 2),
		ComposeDone(ms(8), 3, 42, true, ms(8)),
		DHTHop(ms(9), 2, 5, 0, 1, "get"),
	}
}

func hasViolation(vs []Violation, name string) bool {
	for _, v := range vs {
		if v.Name == name {
			return true
		}
	}
	return false
}

func TestCheckCleanTrace(t *testing.T) {
	if vs := Check(cleanTrace()); len(vs) != 0 {
		t.Fatalf("clean trace flagged: %v", vs)
	}
}

func TestCheckNamedViolations(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name    string
		corrupt func([]Event) []Event
		want    string
	}{
		{"leaked probe", func(evs []Event) []Event {
			// Remove the child's drop record: pid 102 never terminates and
			// no extra wire drop accounts for it.
			out := evs[:0:0]
			for _, ev := range evs {
				if ev.Kind == KindProbeDropped && ev.PID == 102 {
					continue
				}
				out = append(out, ev)
			}
			return out
		}, VioProbeConservation},
		{"budget grows on split", func(evs []Event) []Event {
			out := append([]Event(nil), evs...)
			for i := range out {
				if out[i].PID == 102 && out[i].Kind == KindProbeForwarded {
					out[i].Budget = 15 // parent only carried 10
				}
			}
			return out
		}, VioBudgetExceeded},
		{"origin exceeds request budget", func(evs []Event) []Event {
			out := append([]Event(nil), evs...)
			for i := range out {
				if out[i].PID == 101 && out[i].Kind == KindProbeSent {
					out[i].Budget = 25 // request announced 20
				}
			}
			return out
		}, VioBudgetExceeded},
		{"establish without admit", func(evs []Event) []Event {
			out := evs[:0:0]
			for _, ev := range evs {
				if ev.Kind == KindSessionAdmit {
					continue
				}
				out = append(out, ev)
			}
			return out
		}, VioEstabWithoutAdmit},
		{"establish before admit", func(evs []Event) []Event {
			out := append([]Event(nil), evs...)
			for i := range out {
				if out[i].Kind == KindSessionEstab {
					out[i].TS = ms(1)
				}
			}
			return out
		}, VioEstabWithoutAdmit},
		{"done without start", func(evs []Event) []Event {
			return append(append([]Event(nil), evs...), ComposeDone(ms(9), 4, 77, false, 0))
		}, VioDoneWithoutStart},
		{"done before start", func(evs []Event) []Event {
			out := append([]Event(nil), evs...)
			for i := range out {
				if out[i].Kind == KindComposeStart {
					out[i].TS = ms(10)
				}
			}
			return out
		}, VioDoneBeforeStart},
		{"double done", func(evs []Event) []Event {
			return append(append([]Event(nil), evs...), ComposeDone(ms(9), 3, 42, true, ms(9)))
		}, VioMultipleDone},
		{"double termination", func(evs []Event) []Event {
			return append(append([]Event(nil), evs...), ProbeReturned(ms(9), 6, 42, 1, 1, 256, 104))
		}, VioProbeDoubleTerm},
		{"termination of unknown probe", func(evs []Event) []Event {
			return append(append([]Event(nil), evs...), ProbeReturned(ms(9), 9, 42, 1, 2, 256, 999))
		}, VioProbeUnknownPID},
		{"split from unknown parent", func(evs []Event) []Event {
			out := append([]Event(nil), evs...)
			for i := range out {
				if out[i].PID == 102 && out[i].Kind == KindProbeForwarded {
					out[i].PPID = 888
				}
			}
			return out
		}, VioProbeUnknownPID},
		{"emission without pid", func(evs []Event) []Event {
			out := append([]Event(nil), evs...)
			for i := range out {
				if out[i].PID == 101 && out[i].Kind == KindProbeSent {
					out[i].PID = 0
				}
			}
			return out
		}, VioProbeMissingPID},
		{"duplicate pid", func(evs []Event) []Event {
			return append(append([]Event(nil), evs...),
				ProbeSent(ms(9), 3, 42, 7, "fn1", "p7/fn1.0", 10, 0, 101, 0))
		}, VioProbeDuplicatePID},
	}
	for _, tc := range cases {
		vs := Check(tc.corrupt(cleanTrace()))
		if !hasViolation(vs, tc.want) {
			t.Errorf("%s: want violation %q, got %v", tc.name, tc.want, vs)
		}
	}
}

// faultTrace exercises per-copy conservation under injected faults and
// retransmits: pid 201 is duplicated and loses one copy but returns; pid
// 202 loses its only copy to injected loss; pid 203 is retransmitted and
// both copies die on the wire.
func faultTrace() []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Event{
		ComposeStart(0, 3, 43, 3, 20),
		ProbeSent(ms(1), 3, 43, 7, "fn1", "p7/fn1.0", 6, 0, 201, 0),
		NetFault(ms(1), 3, 7, FaultDup, "bcp.probe", 128, 201),
		NetDrop(ms(2), 3, 7, "bcp.probe", 128, 201),
		ProbeSent(ms(1), 3, 43, 8, "fn1", "p8/fn1.1", 6, 0, 202, 0),
		NetFault(ms(1), 3, 8, FaultLoss, "bcp.probe", 128, 202),
		ProbeSent(ms(1), 3, 43, 9, "fn1", "p9/fn1.2", 6, 0, 203, 0),
		ProbeRetx(ms(3), 3, 43, 9, "bcp.probe", 1, 203),
		NetFault(ms(1), 3, 9, FaultPartition, "bcp.probe", 128, 203),
		NetFault(ms(3), 3, 9, FaultPartition, "bcp.probe", 128, 203),
		ProbeReturned(ms(5), 7, 43, 1, 1, 256, 201),
		SessionAdmit(ms(6), 7, 43, "p7/fn1.0"),
		SessionEstablish(ms(7), 3, 43, 1),
		ComposeDone(ms(8), 3, 43, true, ms(8)),
	}
}

func TestCheckFaultTrace(t *testing.T) {
	if vs := Check(faultTrace()); len(vs) != 0 {
		t.Fatalf("fault trace flagged: %v", vs)
	}
}

func TestCheckFaultViolations(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name    string
		corrupt func([]Event) []Event
		want    string
	}{
		{"resolved probe with every copy dropped", func(evs []Event) []Event {
			// pid 201 returned, yet both its copies (original + dup) died.
			return append(append([]Event(nil), evs...),
				NetDrop(ms(4), 3, 7, "bcp.probe", 128, 201))
		}, VioProbeConservation},
		{"unresolved probe with surviving copy", func(evs []Event) []Event {
			// Drop pid 202's loss record: its only copy survived, so the
			// missing termination is a silent leak.
			out := evs[:0:0]
			for _, ev := range evs {
				if ev.Kind == KindNetFault && ev.PID == 202 {
					continue
				}
				out = append(out, ev)
			}
			return out
		}, VioProbeConservation},
		{"unresolved probe with live retransmit copy", func(evs []Event) []Event {
			// Drop one of pid 203's partition kills: one of its two copies
			// survived and must have resolved somewhere.
			out := append([]Event(nil), evs...)
			for i, ev := range out {
				if ev.Kind == KindNetFault && ev.PID == 203 {
					return append(out[:i], out[i+1:]...)
				}
			}
			return out
		}, VioProbeConservation},
		{"retransmit of unknown probe", func(evs []Event) []Event {
			return append(append([]Event(nil), evs...),
				ProbeRetx(ms(9), 3, 43, 9, "bcp.probe", 1, 999))
		}, VioProbeUnknownPID},
		{"fault on unknown probe", func(evs []Event) []Event {
			return append(append([]Event(nil), evs...),
				NetFault(ms(9), 3, 9, FaultLoss, "bcp.probe", 128, 998))
		}, VioProbeUnknownPID},
		{"fault without pid", func(evs []Event) []Event {
			return append(append([]Event(nil), evs...),
				NetFault(ms(9), 3, 9, FaultLoss, "bcp.probe", 128, 0))
		}, VioProbeMissingPID},
		{"retransmit without pid", func(evs []Event) []Event {
			return append(append([]Event(nil), evs...),
				ProbeRetx(ms(9), 3, 43, 9, "bcp.probe", 1, 0))
		}, VioProbeMissingPID},
	}
	for _, tc := range cases {
		vs := Check(tc.corrupt(faultTrace()))
		if !hasViolation(vs, tc.want) {
			t.Errorf("%s: want violation %q, got %v", tc.name, tc.want, vs)
		}
	}
}

func TestCheckIgnoresNonProbeWireRecords(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	evs := append(faultTrace(),
		// Report-leg retransmits and faults on other message types carry
		// their own UIDs but must not enter probe-copy accounting.
		ProbeRetx(ms(9), 7, 43, 3, "bcp.report", 1, 777),
		NetFault(ms(9), 5, 6, FaultLoss, "recovery.ping", 64, 0),
		NetDrop(ms(9), 5, 6, "recovery.ping", 64, 0),
	)
	if vs := Check(evs); len(vs) != 0 {
		t.Fatalf("non-probe wire records flagged: %v", vs)
	}
}

func TestCheckTotals(t *testing.T) {
	evs := cleanTrace()
	good := Counters{
		ProbesSent:     4,
		ProbesDropped:  1,
		ProbesReturned: 1,
		BudgetSpent:    30, // 10 + 10 + 5 + 5
		DHTHops:        1,
		MsgsDrop:       1,
		// Not trace-derivable; arbitrary values must not trip the check.
		MsgsSent: 123, BytesSent: 456, MsgsRecv: 99,
	}
	if vs := CheckTotals(evs, good); len(vs) != 0 {
		t.Fatalf("consistent totals flagged: %v", vs)
	}
	bad := good
	bad.ProbesSent = 7
	bad.BudgetSpent = 1
	vs := CheckTotals(evs, bad)
	if !hasViolation(vs, VioCounterMismatch) || len(vs) != 2 {
		t.Fatalf("want 2 counter mismatches, got %v", vs)
	}
}

func TestCheckTotalsFaults(t *testing.T) {
	evs := faultTrace()
	good := Counters{
		ProbesSent:     3,
		ProbesReturned: 1,
		BudgetSpent:    18, // 6 + 6 + 6
		ProbesRetx:     1,
		MsgsDrop:       1,
		Faults:         4, // dup + loss + 2 partition kills
	}
	if vs := CheckTotals(evs, good); len(vs) != 0 {
		t.Fatalf("consistent fault totals flagged: %v", vs)
	}
	bad := good
	bad.ProbesRetx = 0
	bad.Faults = 9
	vs := CheckTotals(evs, bad)
	if !hasViolation(vs, VioCounterMismatch) || len(vs) != 2 {
		t.Fatalf("want 2 counter mismatches, got %v", vs)
	}
}

// fedTrace is a minimal clean 2PC trace: request 9 prepares on two domains;
// one segment commits, the other aborts (mixed outcomes are legal per
// segment — the lifecycle invariant is per-prepare, not per-request).
func fedTrace() []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sub := func(seg int) uint64 { return uint64(1)<<62 | 9<<4 | uint64(seg) }
	return []Event{
		FedPrepare(ms(1), 4, 9, sub(0), 0),
		FedPrepare(ms(2), 11, 9, sub(1), 1),
		FedCommit(ms(5), 4, 9, sub(0), 0),
		FedAbort(ms(6), 11, 9, sub(1), 1, "expire"),
	}
}

func TestCheckFedLifecycle(t *testing.T) {
	if vs := Check(fedTrace()); len(vs) != 0 {
		t.Fatalf("clean 2PC trace flagged: %v", vs)
	}
}

func TestCheckFedViolations(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sub := func(seg int) uint64 { return uint64(1)<<62 | 9<<4 | uint64(seg) }
	cases := []struct {
		name    string
		corrupt func([]Event) []Event
		want    string
	}{
		{"unresolved prepare", func(evs []Event) []Event {
			// Drop the abort: sub(1) never resolves and its holder stays up.
			return evs[:3]
		}, VioFedUnresolved},
		{"double prepare", func(evs []Event) []Event {
			return append(evs, FedPrepare(ms(3), 4, 9, sub(0), 0))
		}, VioFedDoublePrepare},
		{"double resolve", func(evs []Event) []Event {
			return append(evs, FedAbort(ms(7), 4, 9, sub(0), 0, "abort"))
		}, VioFedDoubleResolve},
		{"resolve without prepare", func(evs []Event) []Event {
			return append(evs, FedCommit(ms(7), 4, 9, sub(2), 0))
		}, VioFedResolveNoPrep},
		{"resolve before prepare", func(evs []Event) []Event {
			out := append([]Event(nil), evs...)
			out[2].TS = 0 // commit stamped before its prepare
			return out
		}, VioFedResolveNoPrep},
		{"domain mismatch", func(evs []Event) []Event {
			out := append([]Event(nil), evs...)
			out[2] = FedCommit(ms(5), 4, 9, sub(0), 1) // prepared in domain 0
			return out
		}, VioFedDomainMismatch},
	}
	for _, tc := range cases {
		vs := Check(tc.corrupt(fedTrace()))
		if !hasViolation(vs, tc.want) {
			t.Errorf("%s: want %s, got %v", tc.name, tc.want, vs)
		}
	}
}

// TestCheckFedCrashExcusal: a prepare left unresolved because its holder
// crashed is excused — the dead gateway cannot emit its own release, and the
// BCP commit TTL reclaims the resources out of band.
func TestCheckFedCrashExcusal(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sub := uint64(1)<<62 | 9<<4
	evs := []Event{
		FedPrepare(ms(1), 4, 9, sub, 0),
		NodeDown(ms(3), 4),
	}
	if vs := Check(evs); len(vs) != 0 {
		t.Fatalf("crash-excused prepare flagged: %v", vs)
	}
	// A crash BEFORE the prepare excuses nothing (the node was up when it
	// prepared, so it had every chance to resolve).
	early := []Event{
		NodeDown(0, 4),
		FedPrepare(ms(1), 4, 9, sub, 0),
	}
	if vs := Check(early); !hasViolation(vs, VioFedUnresolved) {
		t.Fatalf("pre-prepare crash excused the prepare: %v", vs)
	}
}

func TestCheckTotalsFed(t *testing.T) {
	evs := fedTrace()
	good := Counters{FedPrepares: 2, FedCommits: 1, FedAborts: 1}
	if vs := CheckTotals(evs, good); len(vs) != 0 {
		t.Fatalf("consistent fed totals flagged: %v", vs)
	}
	bad := good
	bad.FedCommits = 5
	if vs := CheckTotals(evs, bad); !hasViolation(vs, VioCounterMismatch) {
		t.Fatalf("fed counter drift not flagged: %v", vs)
	}
}

// TestCheckProbeCrashExcusal: a probe that reached a peer which then crashed
// is excused from conservation — the dead peer cannot report what it held —
// but only if the probed peer itself went down at or after the emission and
// a wire copy actually got through.
func TestCheckProbeCrashExcusal(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	held := func(down Event) []Event {
		return []Event{
			ComposeStart(0, 3, 44, 2, 8),
			ProbeSent(ms(1), 3, 44, 7, "fn1", "p7/fn1.0", 8, 0, 301, 0),
			down,
		}
	}
	if vs := Check(held(NodeDown(ms(2), 7))); len(vs) != 0 {
		t.Fatalf("probe held by a crashed peer flagged: %v", vs)
	}
	for name, evs := range map[string][]Event{
		"crash before emission": {NodeDown(0, 7), NodeUp(ms(1), 7),
			ComposeStart(ms(1), 3, 44, 2, 8),
			ProbeSent(ms(2), 3, 44, 7, "fn1", "p7/fn1.0", 8, 0, 301, 0)},
		"crash of another peer": held(NodeDown(ms(2), 8)),
		// One copy, two drops: over-accounted, crash or not.
		"more drops than copies": append(held(NodeDown(ms(2), 7)),
			NetDrop(ms(3), 3, 7, "bcp.probe", 136, 301),
			NetDrop(ms(3), 3, 7, "bcp.probe", 136, 301)),
	} {
		if vs := Check(evs); !hasViolation(vs, VioProbeConservation) {
			t.Errorf("%s: leaked probe excused: %v", name, vs)
		}
	}
}

// closeTrace is one request whose two probes return and are collected, with
// selection closing early (positive Dur) in the event of the last collection.
func closeTrace() []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Event{
		ComposeStart(0, 3, 45, 1, 4),
		ProbeSent(ms(1), 3, 45, 7, "fn1", "p7/fn1.0", 2, 0, 401, 0),
		ProbeSent(ms(1), 3, 45, 8, "fn1", "p8/fn1.1", 2, 0, 402, 0),
		ProbeReturned(ms(2), 7, 45, 1, 1, 200, 401),
		ProbeReturned(ms(3), 8, 45, 1, 1, 200, 402),
		ProbeCollected(ms(4), 1, 45, 7, 1, 401),
		ProbeCollected(ms(5), 1, 45, 8, 1, 402),
		SelectDone(ms(5), 1, 45, 2, 2, ms(1500)),
	}
}

func TestCheckCompleteAtClose(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	if vs := Check(closeTrace()); len(vs) != 0 {
		t.Fatalf("complete early close flagged: %v", vs)
	}
	// without returns evs minus the records drop matches.
	without := func(evs []Event, drop func(Event) bool) []Event {
		out := evs[:0:0]
		for _, ev := range evs {
			if !drop(ev) {
				out = append(out, ev)
			}
		}
		return out
	}
	missed := without(closeTrace(), func(ev Event) bool {
		return ev.Kind == KindProbeCollected && ev.PID == 402
	})
	if vs := Check(missed); !hasViolation(vs, VioIncompleteClose) {
		t.Errorf("early close that missed a returned probe passed: %v", vs)
	}
	// The same gap is legitimate when the window timer decided (Dur 0): the
	// report may have been lost, and the bound is what the paper specifies.
	atBound := append([]Event(nil), missed...)
	atBound[len(atBound)-1].Dur = 0
	if vs := Check(atBound); len(vs) != 0 {
		t.Errorf("window-bound close flagged: %v", vs)
	}
	// ... and is excused when a probe copy of the request was duplicated on
	// the wire, which mints termination credit.
	minted := append(append([]Event(nil), missed[:2]...),
		NetFault(ms(1), 3, 7, FaultDup, "bcp.probe", 136, 401))
	minted = append(minted, missed[2:]...)
	if vs := Check(minted); len(vs) != 0 {
		t.Errorf("dup-minted request not excused: %v", vs)
	}
	late := append(closeTrace(),
		ProbeSent(ms(1), 3, 45, 9, "fn1", "p9/fn1.2", 2, 0, 403, 0),
		ProbeReturned(ms(6), 9, 45, 1, 1, 200, 403))
	if vs := Check(late); !hasViolation(vs, VioIncompleteClose) {
		t.Errorf("report after the early close passed: %v", vs)
	}
	after := append(closeTrace(),
		ProbeSent(ms(1), 3, 45, 9, "fn1", "p9/fn1.2", 2, 0, 403, 0),
		ProbeReturned(ms(6), 9, 45, 1, 1, 200, 403),
		ProbeCollected(ms(7), 1, 45, 9, 1, 403))
	if vs := Check(after); !hasViolation(vs, VioIncompleteClose) {
		t.Errorf("collection after the early close passed: %v", vs)
	}
}

// recTrace is a clean recovery lifecycle: session 7 at source 3 fails twice
// and is repaired by a switchover, then — the switchover attempt timing out —
// by re-composition 70; session 8 fails once and is given up on; probes run
// in between.
func recTrace() []Event {
	s := func(n int) time.Duration { return time.Duration(n) * time.Second }
	return []Event{
		RecProbe(s(2), 3, 7, 5),
		RecFailure(s(4), 3, 7),
		RecAttempt(s(4), 3, 7, 0, s(3)),
		RecOutcome(s(5), 3, 7, KindRecSwitchover, s(1)),
		RecProbe(s(6), 3, 7, 6),
		RecProbe(s(6), 4, 8, 9),
		RecFailure(s(8), 3, 7),
		RecFailure(s(8), 4, 8),
		RecAttempt(s(8), 3, 7, 0, s(3)),
		RecAttempt(s(11), 3, 7, 70, 0),
		ComposeStart(s(11), 3, 70, 3, 20),
		ComposeDone(s(12), 3, 70, true, s(1)),
		RecOutcome(s(12), 3, 7, KindRecReactive, s(4)),
		RecOutcome(s(12), 4, 8, KindRecDead, 0),
		RecProbe(s(12), 3, 7, 6),
	}
}

func TestCheckRecLifecycle(t *testing.T) {
	if vs := Check(recTrace()); len(vs) != 0 {
		t.Fatalf("clean recovery trace flagged: %v", vs)
	}
}

// TestCheckRecUnresolved: a failure must be resolved before the session's
// next one and before the trace ends. Excused are a source that crashed at or
// after declaring it, and a trace cut inside the failure's latest attempt:
// before a switchover's own deadline, or before the compose.done of the
// re-composition it names.
func TestCheckRecUnresolved(t *testing.T) {
	s := func(n int) time.Duration { return time.Duration(n) * time.Second }
	evs := recTrace()
	fail, setup := RecFailure(s(14), 3, 7), RecAttempt(s(14), 3, 7, 0, s(3))
	redo := []Event{RecAttempt(s(14), 3, 7, 71, 0), ComposeStart(s(14), 3, 71, 3, 20)}
	at := func(n int) Event { return RecProbe(s(n), 5, 9, 2) } // another session's probe: the trace goes on
	for name, bad := range map[string][]Event{
		"no attempt follows":         append(evs, fail, at(14)),
		"switchover deadline passed": append(evs, fail, setup, at(17)),
		"re-composition ended":       append(append(append(evs, fail), redo...), ComposeDone(s(15), 3, 71, false, s(1)), at(15)),
		"open at the next failure":   {evs[1], evs[2], evs[6], evs[8], evs[12]},
		"source crashed before it":   append(evs, NodeDown(s(13), 3), NodeUp(s(13), 3), fail, at(14)),
	} {
		if vs := Check(bad); !hasViolation(vs, VioRecUnresolved) {
			t.Errorf("%s: want %s, got %v", name, VioRecUnresolved, vs)
		}
	}
	for name, good := range map[string][]Event{
		"source crashed":          append(evs, fail, NodeDown(s(14), 3), at(60)),
		"cut inside a switchover": append(evs, fail, setup, at(16)),
		"cut while re-composing":  append(append(append(evs, fail), redo...), at(60)),
	} {
		if vs := Check(good); len(vs) != 0 {
			t.Errorf("%s: open failure flagged: %v", name, vs)
		}
	}
}

// TestCheckRecResolveNoFailure: a resolution needs an unresolved failure of
// its own session before it — a second one has none left.
func TestCheckRecResolveNoFailure(t *testing.T) {
	s := func(n int) time.Duration { return time.Duration(n) * time.Second }
	evs := recTrace()
	for name, bad := range map[string][]Event{
		"resolved twice":        append(evs, RecOutcome(s(13), 3, 7, KindRecSwitchover, s(5))),
		"no failure at all":     {RecProbe(s(2), 3, 7, 5), RecOutcome(s(5), 3, 7, KindRecDead, 0)},
		"another session's own": {RecFailure(s(4), 3, 7), RecOutcome(s(5), 4, 8, KindRecReactive, s(1)), RecOutcome(s(5), 3, 7, KindRecReactive, s(1))},
	} {
		if vs := Check(bad); !hasViolation(vs, VioRecResolveNoFailure) {
			t.Errorf("%s: want %s, got %v", name, VioRecResolveNoFailure, vs)
		}
	}
}

// TestCheckRecProbeAfterDead: a session given up on is never probed again.
func TestCheckRecProbeAfterDead(t *testing.T) {
	bad := append(recTrace(), RecProbe(14*time.Second, 4, 8, 9))
	if vs := Check(bad); len(vs) != 1 || vs[0].Name != VioRecProbeAfterDead {
		t.Fatalf("want exactly %s, got %v", VioRecProbeAfterDead, vs)
	}
}
