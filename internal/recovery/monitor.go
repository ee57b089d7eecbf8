package recovery

import (
	"slices"
	"sort"
	"time"

	"repro/internal/bcp"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/service"
)

const (
	probeMsgSize = 48 // "low-rate measurement probes" (§5): small on the wire
	setupMsgSize = 96

	// probeInterval is the period of the low-rate maintenance probes.
	probeInterval = 2 * time.Second
	// pongTimeout is how long the source waits for a path probe to return
	// before declaring the probed graph failed.
	pongTimeout = 1500 * time.Millisecond
	// setupTimeout bounds one switchover attempt.
	setupTimeout = 3 * time.Second
	// pingTimeout bounds the per-peer liveness check that localizes a
	// failure before switchover.
	pingTimeout = 400 * time.Millisecond
)

// reattemptShift namespaces the request IDs of reactive re-compositions so
// they never collide with first-attempt IDs (workload generators keep IDs
// below 2^40).
const reattemptShift = 40

// scheduleProbes arms the periodic maintenance timer at the sender.
func (m *Manager) scheduleProbes() {
	m.probeTimer = m.host.After(probeInterval, func() {
		m.probeTimer = nil
		m.tick()
		if len(m.sessions) > 0 {
			m.scheduleProbes()
		}
	})
}

// tick sends one low-rate path probe along each session's active graph and
// every maintained backup, and schedules the pong deadline checks.
func (m *Manager) tick() {
	// Deterministic probing order: map iteration would reorder sends (and
	// therefore the whole downstream event schedule) between runs.
	ids := make([]uint64, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := m.sessions[id]
		if !s.alive || s.awaitingFix {
			continue
		}
		m.probeGraph(s, s.Active)
		if m.cfg.Proactive {
			for _, b := range s.Backups {
				m.probeGraph(s, b)
			}
		}
		m.stats.BackupSum += len(s.Backups)
		m.stats.BackupSamples++
	}
}

func (m *Manager) probeGraph(s *Session, g *service.Graph) {
	order, key := s.known[g].order, s.known[g].key
	sentAt := m.host.Now()
	first := g.Comps[order[0]].Comp.Peer
	if m.Trace != nil {
		m.Trace.Emit(obs.RecProbe(sentAt, m.host.ID(), s.ID, first))
	}
	m.host.Send(p2p.Message{
		Type: MsgProbe, To: first, Size: probeMsgSize,
		Payload: probeMsg{
			SessID: s.ID, GraphKey: key, Graph: g, Order: order,
			Origin: m.host.ID(),
		},
	})
	sess := s.ID
	m.host.After(pongTimeout, func() {
		m.checkPong(sess, key, sentAt)
	})
}

// onProbe runs on a component host: confirm the component is still here,
// append a fresh availability snapshot, and forward (or bounce the pong).
func (m *Manager) onProbe(_ p2p.Node, msg p2p.Message) {
	pm := msg.Payload.(probeMsg)
	fn := pm.Order[pm.Pos]
	snap := pm.Graph.Comps[fn]
	comp, hosted := m.eng.LocalComponent(snap.Comp.ID)
	if !hosted {
		return // component gone: probe dies, source times out
	}
	pm.Avail = append(pm.Avail, service.Snapshot{Comp: comp, Avail: m.eng.Ledger().AvailableHard()})
	pm.Pos++
	if pm.Pos < len(pm.Order) {
		next := pm.Graph.Comps[pm.Order[pm.Pos]].Comp.Peer
		m.host.Send(p2p.Message{Type: MsgProbe, To: next, Size: probeMsgSize, Payload: pm})
		return
	}
	m.host.Send(p2p.Message{Type: MsgPong, To: pm.Origin, Size: probeMsgSize, Payload: pm})
}

// onPong refreshes the graph's liveness timestamp and resource snapshots at
// the sender.
func (m *Manager) onPong(_ p2p.Node, msg p2p.Message) {
	pm := msg.Payload.(probeMsg)
	s, ok := m.sessions[pm.SessID]
	if !ok || !s.alive {
		return
	}
	s.lastPong[pm.GraphKey] = m.host.Now()
	delete(s.missed, pm.GraphKey)
	// Fold the fresh availability snapshots back into the graph so backup
	// qualification stays current.
	for i, fn := range pm.Order {
		if i < len(pm.Avail) {
			pm.Graph.Comps[fn] = pm.Avail[i]
		}
	}
}

// checkPong fires pongTimeout after a probe was sent: a missing pong means
// the probed graph is broken.
func (m *Manager) checkPong(sessID uint64, graphKey string, sentAt time.Duration) {
	s, ok := m.sessions[sessID]
	if !ok || !s.alive || s.awaitingFix {
		return
	}
	if last, ok := s.lastPong[graphKey]; ok && last >= sentAt {
		return // pong arrived in time
	}
	// One silent probe is not yet a failure when MissedPongs > 1: on lossy
	// links the probe (or its pong) may simply have been dropped. Count
	// consecutive misses and only declare the graph broken at the threshold;
	// any pong in between resets the count (onPong).
	need := m.cfg.MissedPongs
	if need < 1 {
		need = 1
	}
	s.missed[graphKey]++
	if s.missed[graphKey] < need {
		return
	}
	delete(s.missed, graphKey)
	if s.known[s.Active].key == graphKey {
		m.activeFailed(s)
		return
	}
	// A backup broke: drop it from the maintained set and the pool, then
	// re-select.
	s.drop(graphKey)
	if m.cfg.Proactive {
		m.refreshBackups(s)
	}
}

// drop removes the graph with the given key from the maintained backups and
// the pool.
func (s *Session) drop(key string) {
	is := func(g *service.Graph) bool { return s.known[g].key == key }
	s.Backups = slices.DeleteFunc(s.Backups, is)
	s.Pool = slices.DeleteFunc(s.Pool, is)
}

// activeFailed starts the recovery sequence for a broken session. The path
// probe's silence says the graph is broken but not where, so the sender
// first pings every component peer of the broken graph directly; the peers
// that fail to answer within pingTimeout are the localized failure, and the
// switchover then skips backups that depend on them (the paper leaves the
// failure-detection design open — §5 footnote 4).
func (m *Manager) activeFailed(s *Session) {
	m.stats.FailuresDetected++
	s.awaitingFix = true
	s.brokenAt = m.host.Now()
	if m.Trace != nil {
		m.Trace.Emit(obs.RecFailure(s.brokenAt, m.host.ID(), s.ID))
	}

	peerSet := make(map[p2p.NodeID]bool)
	for _, snap := range s.Active.Comps {
		peerSet[snap.Comp.Peer] = true
	}
	// Ping in sorted order so the failure-localization traffic is identical
	// across identically seeded runs.
	peers := make([]p2p.NodeID, 0, len(peerSet))
	for p := range peerSet {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	alivePeers := make(map[p2p.NodeID]bool, len(peers))
	waiting := len(peers)
	for _, p := range peers {
		p := p
		m.ping(p, func(ok bool) {
			if ok {
				alivePeers[p] = true
			}
			waiting--
			if waiting == 0 {
				dead := make(map[p2p.NodeID]bool)
				for _, q := range peers {
					if !alivePeers[q] {
						dead[q] = true
					}
				}
				m.tryRecovery(s, dead)
			}
		})
	}
}

// ping checks one peer's liveness with a direct round trip; cb fires
// exactly once.
func (m *Manager) ping(p p2p.NodeID, cb func(ok bool)) {
	m.pingSeq++
	id := m.pingSeq
	fired := false
	once := func(ok bool) {
		if !fired {
			fired = true
			delete(m.pingWait, id)
			cb(ok)
		}
	}
	m.pingWait[id] = func() { once(true) }
	m.host.After(pingTimeout, func() { once(false) })
	m.host.Send(p2p.Message{Type: MsgPing, To: p, Size: 16, Payload: pingMsg{ID: id, Origin: m.host.ID()}})
}

type pingMsg struct {
	ID     uint64
	Origin p2p.NodeID
}

func (m *Manager) onPing(_ p2p.Node, msg p2p.Message) {
	pm := msg.Payload.(pingMsg)
	m.host.Send(p2p.Message{Type: MsgPingAck, To: pm.Origin, Size: 16, Payload: pm})
}

func (m *Manager) onPingAck(_ p2p.Node, msg p2p.Message) {
	pm := msg.Payload.(pingMsg)
	if ack, ok := m.pingWait[pm.ID]; ok {
		ack()
	}
}

// tryRecovery attempts switchover to the best live backup that avoids the
// localized dead peers; exhausting the backups triggers reactive
// re-composition (if enabled); exhausting that kills the session.
func (m *Manager) tryRecovery(s *Session, dead map[p2p.NodeID]bool) {
	if m.cfg.Proactive && len(s.Backups) > 0 {
		// Best candidate: avoid localized dead peers first, then largest
		// overlap with the broken graph for the cheapest switchover, then
		// lowest cost.
		usesDead := func(g *service.Graph) bool {
			for p := range dead {
				if g.ContainsPeer(p) {
					return true
				}
			}
			return false
		}
		sort.SliceStable(s.Backups, func(i, j int) bool {
			di, dj := usesDead(s.Backups[i]), usesDead(s.Backups[j])
			if di != dj {
				return !di
			}
			oi, oj := s.Backups[i].Overlap(s.Active), s.Backups[j].Overlap(s.Active)
			if oi != oj {
				return oi > oj
			}
			return s.Backups[i].Cost(m.eng.Weights, s.Req) < s.Backups[j].Cost(m.eng.Weights, s.Req)
		})
		cand := s.Backups[0]
		candKey := s.known[cand].key
		s.drop(candKey)
		if usesDead(cand) {
			// Every backup depends on a dead peer: go straight to reactive
			// re-composition rather than paying doomed setup timeouts.
			if m.cfg.Reactive {
				m.reactive(s)
			} else {
				m.kill(s)
			}
			return
		}
		m.attemptSetup(cand, func(ok bool) {
			if !ok {
				m.tryRecovery(s, dead)
				return
			}
			old := s.Active
			s.Active = cand
			s.lastPong[candKey] = m.host.Now()
			delete(s.missed, candKey)
			m.stats.ComponentsReplaced += len(old.Comps) - cand.Overlap(old)
			m.allocIngress(s)
			m.reportDropped(old, cand)
			m.eng.TeardownExcept(old, cand)
			s.awaitingFix = false
			m.record(s, EventSwitchover)
			m.refreshBackups(s)
		})
		return
	}
	if m.cfg.Reactive {
		m.reactive(s)
		return
	}
	m.kill(s)
}

// reactive falls back to a full BCP re-composition (§5: "triggered only when
// all backup service graphs become unqualified as well").
func (m *Manager) reactive(s *Session) {
	s.reattempt++
	req := *s.Req
	req.ID = s.Req.ID | (uint64(s.reattempt) << reattemptShift)
	m.stats.Reactives++ // count attempts, successful or not
	m.eng.Compose(&req, func(res bcp.Result) {
		if !s.alive {
			if res.Ok {
				m.eng.Teardown(res.Best)
			}
			return
		}
		if !res.Ok {
			m.kill(s)
			return
		}
		old := s.Active
		s.adopt(res.Best, res.Backups)
		s.lastPong = map[string]time.Duration{s.known[res.Best].key: m.host.Now()}
		s.missed = make(map[string]int)
		m.stats.ComponentsReplaced += len(old.Comps) - res.Best.Overlap(old)
		m.reportDropped(old, res.Best)
		m.eng.TeardownExcept(old, res.Best)
		s.awaitingFix = false
		m.record(s, EventReactive)
		if m.cfg.Proactive {
			m.refreshBackups(s)
		}
	})
}

// reportDropped feeds the trust reporter: peers the recovery had to drop
// (in the broken graph but not the replacement) are negative evidence.
func (m *Manager) reportDropped(old, replacement *service.Graph) {
	if m.Trust == nil {
		return
	}
	for _, comp := range old.Components() {
		if !replacement.ContainsPeer(comp.Peer) {
			m.Trust.RecordFailure(comp.Peer)
		}
	}
}

// allocIngress admits the sender's ingress links to the (new) active
// graph's first components.
func (m *Manager) allocIngress(s *Session) {
	for _, fn := range s.Active.Pattern.Sources() {
		if snap, ok := s.Active.Comps[fn]; ok {
			m.eng.AllocSessionBandwidth(s.Req.ID, snap.Comp.Peer, s.Req.Bandwidth)
		}
	}
}

func (m *Manager) kill(s *Session) {
	s.alive = false
	if m.Met != nil {
		m.Met.ActiveSessions.Add(-1)
	}
	m.record(s, EventDead)
	m.eng.Teardown(s.Active)
	delete(m.sessions, s.ID)
}

func (m *Manager) record(s *Session, kind EventKind) {
	ev := Event{Time: m.host.Now(), Session: s.ID, Kind: kind}
	switch kind {
	case EventSwitchover:
		m.stats.Switchovers++
		ev.RecoveryTime = m.host.Now() - s.brokenAt
		if m.Met != nil {
			m.Met.Switchover.ObserveDuration(ev.RecoveryTime)
		}
	case EventReactive:
		ev.RecoveryTime = m.host.Now() - s.brokenAt
	case EventDead:
		m.stats.Dead++
	}
	m.events = append(m.events, ev)
	if m.Trace != nil {
		var obsKind string
		switch kind {
		case EventSwitchover:
			obsKind = obs.KindRecSwitchover
		case EventReactive:
			obsKind = obs.KindRecReactive
		default:
			obsKind = obs.KindRecDead
		}
		m.Trace.Emit(obs.RecOutcome(ev.Time, m.host.ID(), s.ID, obsKind, ev.RecoveryTime))
	}
}

// attemptSetup commits a backup graph over the reverse path. cb fires
// exactly once with the outcome (a timeout counts as failure).
func (m *Manager) attemptSetup(g *service.Graph, cb func(ok bool)) {
	m.setupSeq++
	id := m.setupSeq
	fired := false
	once := func(ok bool) {
		if !fired {
			fired = true
			delete(m.setupWait, id)
			cb(ok)
		}
	}
	m.setupWait[id] = once
	m.host.After(setupTimeout, func() { once(false) })

	order := reverseTopoOrder(g)
	m.host.Send(p2p.Message{
		Type: MsgSetup, To: g.Comps[order[0]].Comp.Peer, Size: setupMsgSize,
		Payload: setupMsg{SetupID: id, Graph: g, Order: order, Origin: m.host.ID()},
	})
}

func reverseTopoOrder(g *service.Graph) []int {
	topo := g.Pattern.TopoOrder()
	out := make([]int, len(topo))
	for i, fn := range topo {
		out[len(topo)-1-i] = fn
	}
	return out
}

// onSetup runs on a component host during switchover: admit the component
// and its outgoing links, then forward (or confirm to the origin).
func (m *Manager) onSetup(_ p2p.Node, msg p2p.Message) {
	sm := msg.Payload.(setupMsg)
	fn := sm.Order[sm.Pos]
	snap := sm.Graph.Comps[fn]
	req := sm.Graph.Req

	reply := func(ok bool) {
		typ := MsgSetupOK
		if !ok {
			typ = MsgSetupFail
		}
		m.host.Send(p2p.Message{
			Type: typ, To: sm.Origin, Size: 32,
			Payload: setupReply{SetupID: sm.SetupID, OK: ok},
		})
	}

	if _, hosted := m.eng.LocalComponent(snap.Comp.ID); !hosted {
		reply(false)
		return
	}
	if !m.eng.CommitSession(req.ID, snap.Comp.ID, req.Res) {
		reply(false)
		return
	}
	succs := sm.Graph.Pattern.Successors(fn)
	if len(succs) == 0 {
		if !m.eng.AllocSessionBandwidth(req.ID, req.Dest, req.Bandwidth) {
			reply(false)
			return
		}
	}
	for _, s := range succs {
		next, ok := sm.Graph.Comps[s]
		if !ok || !m.eng.AllocSessionBandwidth(req.ID, next.Comp.Peer, req.Bandwidth) {
			reply(false)
			return
		}
	}
	sm.Pos++
	if sm.Pos < len(sm.Order) {
		m.host.Send(p2p.Message{
			Type: MsgSetup, To: sm.Graph.Comps[sm.Order[sm.Pos]].Comp.Peer,
			Size: setupMsgSize, Payload: sm,
		})
		return
	}
	reply(true)
}

func (m *Manager) onSetupReply(_ p2p.Node, msg p2p.Message) {
	sr := msg.Payload.(setupReply)
	if cb, ok := m.setupWait[sr.SetupID]; ok {
		cb(sr.OK)
	}
}
