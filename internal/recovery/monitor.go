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

// onTick is m.ticks' callback. Whichever entry queued for the pending
// instant fires first ticks and queues the next; its twins and superseded
// entries do nothing. Establish queues one each time because a source that
// crashed lost its timers for good, however short the outage. The dues never
// decrease, as m.ticks needs.
func (m *Manager) onTick(due time.Duration) {
	if m.probeDue != due {
		return
	}
	m.probeDue = 0
	m.tick()
	if len(m.sessions) > 0 {
		m.probeDue = m.host.Now() + probeInterval
		m.ticks.After(probeInterval, m.probeDue)
	}
}

// tick sends each session's maintenance walk and schedules its deadline.
func (m *Manager) tick() {
	// Deterministic probing order: map iteration would reorder sends (and
	// therefore the whole downstream event schedule) between runs.
	m.ids = m.ids[:0]
	for id := range m.sessions {
		m.ids = append(m.ids, id)
	}
	slices.Sort(m.ids)
	for _, id := range m.ids {
		s := m.sessions[id]
		if s.awaitingFix {
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
// belong to the active graph. It is rebuilt only after the graphs changed,
// into one array of stops and one of their component IDs, and never written
// after: walks in flight share it.
func (s *Session) plan() ([]stop, int) {
	if s.stops != nil {
		return s.stops, s.activeStops
	}
	graphs := append(append(make([]*service.Graph, 0, 8), s.Active), s.Backups...)
	n, active := 0, 0
	for _, g := range graphs {
		n += len(g.Comps)
	}
	stops, ids := make([]stop, 0, n), make([]string, 0, n)
	for _, g := range graphs {
		for _, fn := range g.Pattern.TopoOrder() {
			if p := g.Comps[fn].Comp.Peer; !slices.ContainsFunc(stops, func(st stop) bool { return st.Peer == p }) {
				stops = append(stops, stop{Peer: p})
			}
		}
		if g == s.Active {
			active = len(stops)
		}
	}
	for i := range stops {
		from := len(ids)
		for _, g := range graphs {
			for _, fn := range g.Pattern.TopoOrder() {
				if c := g.Comps[fn].Comp; c.Peer == stops[i].Peer && !slices.Contains(ids[from:], c.ID) {
					ids = append(ids, c.ID) // within cap: n bounds them all
				}
			}
		}
		stops[i].Comps = ids[from:len(ids):len(ids)]
	}
	s.stops, s.activeStops = stops, active
	return stops, active
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
		Payload: newWalk(s, m.host.ID(), stops),
	})
	m.pongs.After(pongTimeout, pongWait{sess: s.ID, sentAt: sentAt, full: full})
}

// pongWait is a walk's deadline in m.pongs: the walk of session sess that
// left at sentAt, through the backups' peers too when full.
type pongWait struct {
	sess   uint64
	sentAt time.Duration
	full   bool
}

// newWalk returns a walk of s along stops with one zero Avail slot per stop.
func newWalk(s *Session, origin p2p.NodeID, stops []stop) *walkMsg {
	wm := &walkMsg{SessID: s.ID, ReqID: s.Active.Req.ID, Origin: origin, Stops: stops}
	if len(stops) <= len(wm.avail) {
		wm.Avail = wm.avail[:len(stops)]
	} else {
		wm.Avail = make([]qos.Resources, len(stops))
	}
	return wm
}

func walkSize(stops int) int { return walkBaseSize + walkPerStopSize*stops }

// onProbe runs at a stop: find this peer's entry, renew the lease of what it
// holds for the session, report which expected components it no longer hosts,
// write a fresh availability snapshot into its slot, and forward the walk (or
// bounce the pong). Session.plan lists a peer once, so a duplicated copy finds
// the same entry, rewrites the same slot and forwards to the same next stop.
func (m *Manager) onProbe(_ p2p.Node, msg p2p.Message) {
	wm := msg.Payload.(*walkMsg)
	self := m.host.ID()
	i := slices.IndexFunc(wm.Stops, func(st stop) bool { return st.Peer == self })
	if i < 0 {
		return
	}
	m.eng.Renew(wm.ReqID, m.cfg.lease(m.silences()))
	for _, id := range wm.Stops[i].Comps {
		if m.eng.LocalComponent(id) == nil {
			wm.Missing = append(wm.Missing, id)
		}
	}
	wm.Avail[i] = m.eng.Ledger().AvailableHard()
	to, typ := wm.Origin, MsgPong
	if i+1 < len(wm.Stops) {
		to, typ = wm.Stops[i+1].Peer, MsgProbe
	}
	m.host.Send(p2p.Message{Type: typ, To: to, Size: walkSize(len(wm.Stops)), Payload: wm})
}

// onPong ends a walk at the sender: the session was heard from, the sender
// renews the lease of its own links, every snapshot hosted on a visited peer
// gets the fresh availability so backup qualification stays current, and
// graphs that contain a component a stop reported missing are failed.
func (m *Manager) onPong(_ p2p.Node, msg p2p.Message) {
	wm := msg.Payload.(*walkMsg)
	s, ok := m.sessions[wm.SessID]
	if !ok {
		return
	}
	m.eng.Renew(wm.ReqID, m.cfg.lease(m.silences()))
	s.lastPong = m.host.Now()
	s.silent = 0
	if stops, _ := s.plan(); len(wm.Stops) >= len(stops) {
		s.silentFull = 0
	}
	refresh := func(g *service.Graph) {
		for fn, snap := range g.Comps {
			i := slices.IndexFunc(wm.Stops, func(st stop) bool { return st.Peer == snap.Comp.Peer })
			if i >= 0 {
				g.Comps[fn].Avail = wm.Avail[i]
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

// silences is how many consecutive silent walks make a failure: one on a
// clean wire, three on a hardened one, where a lost probe or pong is no failure.
func (m *Manager) silences() int {
	if m.eng.Hardened() {
		return 3
	}
	return 1
}

// checkPong fires pongTimeout after a walk left: no pong since then makes
// the walk silent. Only silences() consecutive silent walks send the source
// looking for the reason. The stretch only full walks reach keeps its own count, which only
// a full walk's pong resets: the active graph answering in between says
// nothing about a dead backup — and clears the active graph of that silence.
func (m *Manager) checkPong(w pongWait) {
	s, ok := m.sessions[w.sess]
	if !ok || s.awaitingFix || s.lastPong >= w.sentAt {
		return
	}
	s.silent++
	if w.full {
		s.silentFull++
	}
	n := m.silences()
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
	s.awaitingFix, s.failed = true, true
	s.brokenAt = since
	if m.Trace != nil {
		m.Trace.Emit(obs.RecFailure(m.host.Now(), m.host.ID(), s.ID))
	}
	m.tryRecovery(s)
}

// await parks cb under a fresh ID until reply delivers a verdict for it or
// pingTimeout passes; cb fires exactly once, a timeout counting as failure.
func (m *Manager) await(cb func(ok bool)) uint64 {
	m.waitSeq++
	m.wait[m.waitSeq] = cb
	m.waits.After(pingTimeout, m.waitSeq)
	return m.waitSeq
}

func (m *Manager) reply(id uint64, ok bool) {
	if cb, open := m.wait[id]; open {
		delete(m.wait, id)
		cb(ok)
	}
}

// ping checks one peer's liveness with a direct round trip.
func (m *Manager) ping(p p2p.NodeID, cb func(ok bool)) {
	id := m.await(cb)
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
// triggers reactive re-composition; exhausting that, or recovery being off,
// kills the session.
func (m *Manager) tryRecovery(s *Session) {
	if !m.cfg.Proactive {
		m.kill(s)
		return
	}
	if len(s.Backups) == 0 {
		m.reactive(s)
		return
	}
	// Best candidate: largest overlap with the broken graph for the cheapest
	// switchover, then lowest cost.
	sort.SliceStable(s.Backups, func(i, j int) bool {
		oi, oj := s.Backups[i].Overlap(s.Active), s.Backups[j].Overlap(s.Active)
		if oi != oj {
			return oi > oj
		}
		return s.Backups[i].Cost(s.Req) < s.Backups[j].Cost(s.Req)
	})
	cand := s.Backups[0]
	s.setGraphs(s.Active, s.Backups[1:])
	s.Pool = slices.DeleteFunc(s.Pool, func(g *service.Graph) bool { return g == cand })
	if m.Trace != nil {
		m.Trace.Emit(obs.RecAttempt(m.host.Now(), m.host.ID(), s.ID, 0, setupTimeout))
	}
	// The walk and its rollback carry copies: onPong refreshes the session's
	// graphs in place, and other peers, goroutines of their own on a live
	// runtime, read what they are sent.
	m.eng.Confirm(cand.Clone(), s.Active.Clone(), setupTimeout, func(ok bool) {
		switch {
		case !s.alive:
			// Closed while the walk was out: what the walk committed belongs to
			// nobody. A refused walk rolled back only what the broken graph does
			// not share, and Close may have freed a shared component before the
			// walk committed it again.
			m.eng.Teardown(cand)
		case ok:
			m.repaired(s, cand, obs.KindRecSwitchover)
		default:
			m.tryRecovery(s)
		}
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
		s.Pool = slices.Clone(res.Backups)
		m.repaired(s, res.Best, obs.KindRecReactive)
	})
}

// repaired makes g the active graph of the broken session, releasing what
// of the broken graph g does not reuse, and records the repair.
func (m *Manager) repaired(s *Session, g *service.Graph, kind string) {
	old := s.Active
	s.setGraphs(g, s.Backups)
	m.stats.ComponentsReplaced += len(old.Comps) - g.Overlap(old)
	m.eng.TeardownExcept(old, g.Clone()) // a copy, as in tryRecovery
	s.awaitingFix = false
	m.record(s, kind)
	if m.cfg.Proactive {
		m.refreshBackups(s)
	}
}

func (m *Manager) kill(s *Session) {
	m.record(s, obs.KindRecDead)
	m.Close(s.ID)
}

// record ends a failure with kind, one of obs.KindRecSwitchover,
// KindRecReactive or KindRecDead: its trace event is the outcome's record.
func (m *Manager) record(s *Session, kind string) {
	s.failed = false
	now := m.host.Now()
	var broken time.Duration // how long the session was broken; 0 when dead
	switch kind {
	case obs.KindRecSwitchover:
		m.stats.Switchovers++
		broken = now - s.brokenAt
	case obs.KindRecReactive:
		broken = now - s.brokenAt
	case obs.KindRecDead:
		m.stats.Dead++
	}
	if m.Trace != nil {
		m.Trace.Emit(obs.RecOutcome(now, m.host.ID(), s.ID, kind, broken))
	}
}
