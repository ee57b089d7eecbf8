package bcp

import (
	"testing"

	"repro/internal/fgraph"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// TestCollectorCountsACopyOnce: on a clean wire no receiver de-duplicates,
// so a report or credit copy that reaches the destination twice — tcpnet
// re-sends a message after a failed write — is the collector's to count
// once: one record, the credit once, one selection.
func TestCollectorCountsACopyOnce(t *testing.T) {
	_, engines := discoveryRing(2)
	e := engines[1]
	if e.Hardened() {
		t.Fatal("a clean wire hardened the engine")
	}
	mem := &obs.MemSink{}
	e.Trace = mem
	req := &service.Request{ID: 7, FGraph: fgraph.Linear("a"), QoSReq: qos.Unbounded(), Source: 0, Dest: 1}
	report := p2p.Message{Type: MsgReport, From: 0, To: 1, UID: 11, Payload: &Probe{
		ReqID: 7, Req: req, Pattern: e.patternsOf(req.FGraph)[0], UID: 11, Credit: TotalCredit / 2,
		Visited: []Hop{{Fn: 0, Snap: service.Snapshot{Comp: service.Component{ID: "p0/a", Function: "a"}}}},
	}}
	credit := p2p.Message{Type: MsgCredit, From: 0, To: 1, UID: 12, Payload: creditMsg{
		ReqID: 7, UID: 12, Credit: TotalCredit - TotalCredit/2, Funcs: 1,
	}}

	e.onReport(e.host, report)
	e.onReport(e.host, report)
	if col := e.collectors[7]; len(col.records) != 1 || col.credit != TotalCredit/2 {
		t.Fatalf("a report delivered twice: %d records, credit %d, want 1 and %d",
			len(col.records), col.credit, TotalCredit/2)
	}
	e.onCredit(e.host, credit)
	e.onCredit(e.host, credit)
	if col := e.collectors[7]; col.credit != TotalCredit || !col.done {
		t.Fatalf("a credit delivered twice: credit %d of %d, closed %v", col.credit, TotalCredit, col.done)
	}
	n := make(map[string]int)
	for _, ev := range mem.Events() {
		n[ev.Kind]++
	}
	if n[obs.KindProbeCollected] != 1 || n[obs.KindProbeCredited] != 1 || n[obs.KindSelectDone] != 1 {
		t.Fatalf("%d probe.collected, %d probe.credited, %d select.done, want one each",
			n[obs.KindProbeCollected], n[obs.KindProbeCredited], n[obs.KindSelectDone])
	}
}
