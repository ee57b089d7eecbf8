package recovery

import (
	"slices"
	"sort"
	"time"

	"repro/internal/bcp"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

const (
	// A maintenance walk lists its stops: header plus one entry per stop, so
	// a three-peer walk is the 48 B of "low-rate measurement probes" (§5).
	walkBaseSize    = 24
	walkPerStopSize = 8
	setupMsgSize    = 96

	// probeInterval is the period of the maintenance walk along a session's
	// active graph.
	probeInterval = 2 * time.Second
	// backupEvery makes the paper's "low-rate" literal: every backupEvery-th
	// walk of a session, starting with its first, continues through the peers
	// only its maintained backups use.
	backupEvery = 3
	// pongTimeout is how long the source waits for a walk to return before
	// counting it silent.
	pongTimeout = 1500 * time.Millisecond
	// setupTimeout bounds one switchover attempt.
	setupTimeout = 3 * time.Second
	// pingTimeout bounds the per-peer liveness check that localizes a
	// silence.
	pingTimeout = 400 * time.Millisecond
)

// reattemptShift namespaces the request IDs of reactive re-compositions so
// they never collide with first-attempt IDs (workload generators keep IDs
// below 2^40).
const reattemptShift = 40

// armProbes makes sure a tick fires at due. Whichever timer armed for the
// pending instant fires first ticks and re-arms; its twins and superseded
// timers do nothing. Establish arms one each time because a source that
// crashed lost its timers for good, however short the outage.
func (m *Manager) armProbes(due time.Duration) {
	m.probeDue = due
	m.host.After(due-m.host.Now(), func() {
		if m.probeDue != due {
			return
		}
		m.probeDue = 0
		m.tick()
		if len(m.sessions) > 0 {
			m.armProbes(m.host.Now() + probeInterval)
		}
	})
}

// tick sends each session's maintenance walk and schedules its deadline.
func (m *Manager) tick() {
	// Deterministic probing order: map iteration would reorder sends (and
	// therefore the whole downstream event schedule) between runs.
	ids := make([]uint64, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s := m.sessions[id]
		if !s.alive || s.awaitingFix {
			continue
		}
		m.walk(s)
		m.stats.BackupSum += len(s.Backups)
		m.stats.BackupSamples++
	}
}

// stop is one peer of a maintenance walk and the components the session
// expects it to host.
type stop struct {
	Peer  p2p.NodeID
	Comps []string
}

// plan lists the distinct peers of the session's graphs in walk order — the
// active graph's in its topological order, so the walk travels the service
// path, then those only the maintained backups use — and returns how many
// belong to the active graph. It is rebuilt only after the graphs changed.
func (s *Session) plan() ([]stop, int) {
	if s.stops != nil {
		return s.stops, s.activeStops
	}
	add := func(g *service.Graph) {
		for _, fn := range g.Pattern.TopoOrder() {
			c := g.Comps[fn].Comp
			i := slices.IndexFunc(s.stops, func(st stop) bool { return st.Peer == c.Peer })
			if i < 0 {
				i = len(s.stops)
				s.stops = append(s.stops, stop{Peer: c.Peer})
			}
			if !slices.Contains(s.stops[i].Comps, c.ID) {
				s.stops[i].Comps = append(s.stops[i].Comps, c.ID)
			}
		}
	}
	add(s.Active)
	s.activeStops = len(s.stops)
	for _, b := range s.Backups {
		add(b)
	}
	return s.stops, s.activeStops
}

// walk launches one maintenance walk for s: a single rec.probe that visits
// the active graph's peers — and on every backupEvery-th walk the backups'
// own peers too — and comes back as one rec.pong.
func (m *Manager) walk(s *Session) {
	stops, active := s.plan()
	full := s.walks%backupEvery == 0 || active == len(stops)
	if !full {
		stops = stops[:active]
	}
	s.walks++
	m.stats.Walks++
	m.stats.WalkStops += len(stops)
	sentAt := m.host.Now()
	if m.Trace != nil {
		m.Trace.Emit(obs.RecProbe(sentAt, m.host.ID(), s.ID, stops[0].Peer))
	}
	m.host.Send(p2p.Message{
		Type: MsgProbe, To: stops[0].Peer, Size: walkSize(len(stops)),
		Payload: walkMsg{
			SessID: s.ID, Origin: m.host.ID(), Stops: stops,
			Avail: make([]qos.Resources, 0, len(stops)),
		},
	})
	sess := s.ID
	m.host.After(pongTimeout, func() { m.checkPong(sess, sentAt, full) })
}

func walkSize(stops int) int { return walkBaseSize + walkPerStopSize*stops }

// onProbe runs at a stop: report which expected components are no longer
// hosted here, append a fresh availability snapshot, and forward (or bounce
// the pong).
func (m *Manager) onProbe(_ p2p.Node, msg p2p.Message) {
	wm := msg.Payload.(walkMsg)
	for _, id := range wm.Stops[wm.Pos].Comps {
		if _, hosted := m.eng.LocalComponent(id); !hosted {
			wm.Missing = append(wm.Missing, id)
		}
	}
	wm.Avail = append(wm.Avail, m.eng.Ledger().AvailableHard())
	wm.Pos++
	to, typ := wm.Origin, MsgPong
	if wm.Pos < len(wm.Stops) {
		to, typ = wm.Stops[wm.Pos].Peer, MsgProbe
	}
	m.host.Send(p2p.Message{Type: typ, To: to, Size: walkSize(len(wm.Stops)), Payload: wm})
}

// onPong ends a walk at the sender: the session was heard from, every
// snapshot hosted on a visited peer gets the fresh availability so backup
// qualification stays current, and graphs that contain a component a stop
// reported missing are failed.
func (m *Manager) onPong(_ p2p.Node, msg p2p.Message) {
	wm := msg.Payload.(walkMsg)
	s, ok := m.sessions[wm.SessID]
	if !ok || !s.alive {
		return
	}
	s.lastPong = m.host.Now()
	s.silent = 0
	if stops, _ := s.plan(); len(wm.Stops) >= len(stops) {
		s.silentFull = 0
	}
	refresh := func(g *service.Graph) {
		for fn, snap := range g.Comps {
			i := slices.IndexFunc(wm.Stops, func(st stop) bool { return st.Peer == snap.Comp.Peer })
			if i >= 0 && i < len(wm.Avail) {
				snap.Avail = wm.Avail[i]
				g.Comps[fn] = snap
			}
		}
	}
	refresh(s.Active)
	for _, b := range s.Backups {
		refresh(b)
	}
	if len(wm.Missing) > 0 && !s.awaitingFix {
		m.failGraphs(s, func(g *service.Graph) bool { return slices.ContainsFunc(wm.Missing, g.Contains) }, m.host.Now())
	}
}

// checkPong fires pongTimeout after a walk left: no pong since then makes
// the walk silent. One silent walk is not yet a failure when MissedPongs > 1:
// on lossy links the probe (or its pong) may simply have been dropped, so
// only MissedPongs consecutive silences send the source looking for the
// reason. The stretch only full walks reach keeps its own count, which only
// a full walk's pong resets: the active graph answering in between says
// nothing about a dead backup — and clears the active graph of that silence.
func (m *Manager) checkPong(sessID uint64, sentAt time.Duration, full bool) {
	s, ok := m.sessions[sessID]
	if !ok || !s.alive || s.awaitingFix || s.lastPong >= sentAt {
		return
	}
	s.silent++
	if full {
		s.silentFull++
	}
	n := max(m.cfg.MissedPongs, 1)
	if s.silent < n && s.silentFull < n {
		return
	}
	blameActive := s.silent >= n
	s.silent, s.silentFull = 0, 0
	m.localize(s, blameActive)
}

// localize finds out what a silent walk could not say. The sender pings
// every peer of the session's graphs directly; the ones that fail to answer
// within pingTimeout are the localized failure (the paper leaves the
// failure-detection design open — §5 footnote 4). Every graph on a dead
// peer is broken, and so is the active graph when nobody is dead and
// blameActive says its own stretch was among the silent: that is unexplained
// silence on the service path.
func (m *Manager) localize(s *Session, blameActive bool) {
	m.stats.Localizations++
	s.awaitingFix = true // no walk leaves while the pings are out
	noticed := m.host.Now()
	stops, _ := s.plan()
	dead := make(map[p2p.NodeID]bool)
	waiting := len(stops)
	for _, st := range stops {
		m.ping(st.Peer, func(ok bool) {
			if !ok {
				dead[st.Peer] = true
			}
			if waiting--; waiting > 0 || !s.alive {
				return
			}
			m.failGraphs(s, func(g *service.Graph) bool {
				for p := range dead {
					if g.ContainsPeer(p) {
						return true
					}
				}
				return g == s.Active && len(dead) == 0 && blameActive
			}, noticed)
		})
	}
}

// failGraphs drops every backup and pool graph that broken reports, so a
// switchover never spends a setupTimeout on one, and re-selects the backups.
// A broken active graph starts the recovery sequence instead, since being
// the instant the session broke.
func (m *Manager) failGraphs(s *Session, broken func(*service.Graph) bool, since time.Duration) {
	s.setGraphs(s.Active, slices.DeleteFunc(s.Backups, broken))
	s.Pool = slices.DeleteFunc(s.Pool, broken)
	if !broken(s.Active) {
		s.awaitingFix = false
		if m.cfg.Proactive {
			m.refreshBackups(s)
		}
		return
	}
	m.stats.FailuresDetected++
	s.awaitingFix = true
	s.brokenAt = since
	if m.Trace != nil {
		m.Trace.Emit(obs.RecFailure(m.host.Now(), m.host.ID(), s.ID))
	}
	m.tryRecovery(s)
}

// await parks cb under a fresh ID until reply delivers a verdict for it or d
// passes; cb fires exactly once, a timeout counting as failure.
func (m *Manager) await(d time.Duration, cb func(ok bool)) uint64 {
	m.waitSeq++
	id := m.waitSeq
	m.wait[id] = cb
	m.host.After(d, func() { m.reply(id, false) })
	return id
}

func (m *Manager) reply(id uint64, ok bool) {
	if cb, open := m.wait[id]; open {
		delete(m.wait, id)
		cb(ok)
	}
}

// ping checks one peer's liveness with a direct round trip.
func (m *Manager) ping(p p2p.NodeID, cb func(ok bool)) {
	id := m.await(pingTimeout, cb)
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
	m.reply(msg.Payload.(pingMsg).ID, true)
}

// tryRecovery attempts switchover to the best maintained backup — failGraphs
// already took those on a localized dead peer; exhausting the backups
// triggers reactive re-composition (if enabled); exhausting that kills the
// session.
func (m *Manager) tryRecovery(s *Session) {
	if !m.cfg.Proactive || len(s.Backups) == 0 {
		if m.cfg.Reactive {
			m.reactive(s)
		} else {
			m.kill(s)
		}
		return
	}
	// Best candidate: largest overlap with the broken graph for the cheapest
	// switchover, then lowest cost.
	sort.SliceStable(s.Backups, func(i, j int) bool {
		oi, oj := s.Backups[i].Overlap(s.Active), s.Backups[j].Overlap(s.Active)
		if oi != oj {
			return oi > oj
		}
		return s.Backups[i].Cost(m.eng.Weights, s.Req) < s.Backups[j].Cost(m.eng.Weights, s.Req)
	})
	cand := s.Backups[0]
	s.setGraphs(s.Active, s.Backups[1:])
	s.Pool = slices.DeleteFunc(s.Pool, func(g *service.Graph) bool { return g == cand })
	if m.Trace != nil {
		m.Trace.Emit(obs.RecAttempt(m.host.Now(), m.host.ID(), s.ID, 0, setupTimeout))
	}
	m.attemptSetup(cand, func(ok bool) {
		if !ok {
			m.tryRecovery(s)
			return
		}
		old := s.Active
		s.setGraphs(cand, s.Backups)
		m.stats.ComponentsReplaced += len(old.Comps) - cand.Overlap(old)
		m.allocIngress(s)
		m.eng.TeardownExcept(old, cand)
		s.awaitingFix = false
		m.record(s, EventSwitchover)
		m.refreshBackups(s)
	})
}

// reactive falls back to a full BCP re-composition (§5: "triggered only when
// all backup service graphs become unqualified as well").
func (m *Manager) reactive(s *Session) {
	s.reattempt++
	req := *s.Req
	req.ID = s.Req.ID | (uint64(s.reattempt) << reattemptShift)
	m.stats.Reactives++ // count attempts, successful or not
	if m.Trace != nil {
		m.Trace.Emit(obs.RecAttempt(m.host.Now(), m.host.ID(), s.ID, req.ID, 0))
	}
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
		m.stats.ComponentsReplaced += len(old.Comps) - res.Best.Overlap(old)
		m.eng.TeardownExcept(old, res.Best)
		s.awaitingFix = false
		m.record(s, EventReactive)
		if m.cfg.Proactive {
			m.refreshBackups(s)
		}
	})
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
		m.Trace.Emit(obs.RecOutcome(ev.Time, m.host.ID(), s.ID, "rec."+kind.String(), ev.RecoveryTime))
	}
}

// attemptSetup commits a backup graph over the reverse path. cb fires
// exactly once with the outcome (a timeout counts as failure).
func (m *Manager) attemptSetup(g *service.Graph, cb func(ok bool)) {
	order := slices.Clone(g.Pattern.TopoOrder())
	slices.Reverse(order)
	m.host.Send(p2p.Message{
		Type: MsgSetup, To: g.Comps[order[0]].Comp.Peer, Size: setupMsgSize,
		Payload: setupMsg{SetupID: m.await(setupTimeout, cb), Graph: g, Order: order, Origin: m.host.ID()},
	})
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
	m.reply(sr.SetupID, sr.OK)
}
