// Package recovery implements SpiderNet's proactive failure recovery (§5 of
// the paper). The application sender maintains a small, adaptively sized set
// of backup service graphs per active session, monitors them with one
// low-rate maintenance walk, and repairs a broken session by fast switchover
// to the best live backup — falling back to a reactive BCP re-composition
// only when every backup has become unqualified too.
package recovery

import (
	"math"
	"sort"
	"time"

	"repro/internal/bcp"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/qos"
	"repro/internal/service"
)

// Protocol message types.
const (
	MsgProbe     = "rec.probe"     // maintenance walk, from stop to stop
	MsgPong      = "rec.pong"      // the walk returning to the source
	MsgPing      = "rec.ping"      // direct per-peer liveness check that localizes a silence
	MsgPingAck   = "rec.pingack"   // liveness confirmation
	MsgSetup     = "rec.setup"     // switchover: commit a backup graph
	MsgSetupOK   = "rec.setupok"   // switchover confirmation
	MsgSetupFail = "rec.setupfail" // switchover rejection
)

// Config tunes the recovery manager.
type Config struct {
	// MissedPongs is how many consecutive maintenance walks must go
	// unanswered before a graph can be declared failed. 1 (the default)
	// reacts to the first silence; lossy networks raise it so a single
	// dropped probe or pong doesn't trigger a spurious switchover. 0 is
	// treated as 1.
	MissedPongs int
	// U is the configurable upper-bound factor of the backup-count formula
	// (Eq. 2).
	U float64
	// MaxBackups is an absolute cap on maintained backups per session.
	MaxBackups int
	// Proactive enables backup maintenance; when false the manager only
	// detects failures (the paper's "without recovery" baseline keeps even
	// reactive recovery off).
	Proactive bool
	// Reactive enables BCP re-composition when all backups are gone.
	Reactive bool
	// DisjointBackups selects fully peer-disjoint backups instead of the
	// paper's overlap-maximizing rule (ablation).
	DisjointBackups bool
}

// DefaultConfig returns the settings used by the experiments.
func DefaultConfig() Config {
	return Config{
		MissedPongs: 1,
		U:           2.0,
		MaxBackups:  5,
		Proactive:   true,
		Reactive:    true,
	}
}

// EventKind classifies a recovery event.
type EventKind int

const (
	// EventSwitchover is a failure repaired from a maintained backup.
	EventSwitchover EventKind = iota
	// EventReactive is a failure repaired by re-running BCP.
	EventReactive
	// EventDead is an unrecovered failure: the session is lost.
	EventDead
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventSwitchover:
		return "switchover"
	case EventReactive:
		return "reactive"
	case EventDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Event records one recovery outcome for the experiment harness.
type Event struct {
	Time    time.Duration
	Session uint64
	Kind    EventKind
	// RecoveryTime is how long the session was broken before repair
	// (zero for EventDead).
	RecoveryTime time.Duration
}

// Stats aggregates a manager's lifetime counters.
type Stats struct {
	FailuresDetected int
	Switchovers      int
	Reactives        int
	Dead             int
	// BackupSum/BackupSamples give the average number of maintained
	// backups per session over time.
	BackupSum     int
	BackupSamples int
	// ComponentsReplaced sums, over all recoveries, how many of the broken
	// graph's components the replacement did NOT reuse — the disruption the
	// overlap-maximizing backup selection minimizes (§5.2).
	ComponentsReplaced int
	// Walks counts maintenance walks launched, WalkStops the peers they
	// listed, Localizations the silences that had to be localized by ping.
	Walks         int
	WalkStops     int
	Localizations int
}

// AvgBackups returns the time-averaged number of maintained backups.
func (s Stats) AvgBackups() float64 {
	if s.BackupSamples == 0 {
		return 0
	}
	return float64(s.BackupSum) / float64(s.BackupSamples)
}

// Session is one active composed service session at its sender.
type Session struct {
	ID      uint64
	Req     *service.Request
	Active  *service.Graph
	Backups []*service.Graph // currently maintained (γ of them)
	Pool    []*service.Graph // remaining qualified graphs, backup candidates

	// stops caches plan's walk order, activeStops how many of them belong to
	// the active graph; nil after the graphs changed.
	stops       []stop
	activeStops int
	walks       int // maintenance walks launched so far

	alive       bool
	lastPong    time.Duration // when a walk last came back
	silent      int           // consecutive walks that did not
	silentFull  int           // consecutive full walks that did not
	awaitingFix bool
	brokenAt    time.Duration
	reattempt   int
}

// adopt makes active and pool the session's graphs.
func (s *Session) adopt(active *service.Graph, pool []*service.Graph) {
	s.setGraphs(active, s.Backups)
	s.Pool = append([]*service.Graph(nil), pool...)
}

// setGraphs is the one place the walked graphs change, so the cached plan
// never outlives them.
func (s *Session) setGraphs(active *service.Graph, backups []*service.Graph) {
	s.Active, s.Backups, s.stops = active, backups, nil
}

// Manager runs on every peer: on component hosts it answers maintenance
// probes and switchover setups; on senders it owns the sessions.
type Manager struct {
	eng  *bcp.Engine
	host p2p.Node
	cfg  Config

	// Trace receives recovery lifecycle events when non-nil.
	Trace obs.Tracer

	// Met, when non-nil, observes the switchover-duration histogram and the
	// active-sessions gauge of the online metrics plane.
	Met *obs.Metrics

	sessions map[uint64]*Session
	stats    Stats
	events   []Event

	probeDue time.Duration // when the next tick is due; 0 when none is armed
	waitSeq  uint64
	wait     map[uint64]func(ok bool) // pings and switchovers awaiting their reply
}

// walkMsg is one maintenance walk: it visits Stops in order, each appending
// its availability and the expected components it no longer hosts, then
// bounces back to the origin as MsgPong.
type walkMsg struct {
	SessID  uint64
	Origin  p2p.NodeID
	Stops   []stop
	Pos     int
	Avail   []qos.Resources // one per visited stop
	Missing []string        // component IDs a visited stop does not host
}

// setupMsg commits a backup graph hop by hop (reverse topological order),
// like BCP's ACK but with direct admission since probe-time reservations are
// long gone.
type setupMsg struct {
	SetupID uint64
	Graph   *service.Graph
	Order   []int
	Pos     int
	Origin  p2p.NodeID
}

type setupReply struct {
	SetupID uint64
	OK      bool
}

// NewManager wires a recovery manager to a peer's BCP engine.
func NewManager(eng *bcp.Engine, cfg Config) *Manager {
	m := &Manager{
		eng:      eng,
		host:     eng.Host(),
		cfg:      cfg,
		sessions: make(map[uint64]*Session),
		wait:     make(map[uint64]func(bool)),
	}
	m.host.Handle(MsgProbe, m.onProbe)
	m.host.Handle(MsgPong, m.onPong)
	m.host.Handle(MsgPing, m.onPing)
	m.host.Handle(MsgPingAck, m.onPingAck)
	m.host.Handle(MsgSetup, m.onSetup)
	m.host.Handle(MsgSetupOK, m.onSetupReply)
	m.host.Handle(MsgSetupFail, m.onSetupReply)
	return m
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Events returns the recorded recovery events.
func (m *Manager) Events() []Event { return append([]Event(nil), m.events...) }

// Sessions returns the number of live sessions at this sender.
func (m *Manager) Sessions() int {
	n := 0
	for _, s := range m.sessions {
		if s.alive {
			n++
		}
	}
	return n
}

// Session returns a live session by ID, or nil.
func (m *Manager) Session(id uint64) *Session {
	if s, ok := m.sessions[id]; ok && s.alive {
		return s
	}
	return nil
}

// Establish registers a freshly composed session (the output of
// bcp.Compose) and starts proactive maintenance. It computes the backup
// count γ from Eq. 2 and picks backups per §5.2.
func (m *Manager) Establish(req *service.Request, res bcp.Result) *Session {
	s := &Session{ID: req.ID, Req: req, alive: true}
	s.adopt(res.Best, res.Backups)
	m.sessions[s.ID] = s
	if m.cfg.Proactive {
		m.refreshBackups(s)
	}
	if m.Trace != nil {
		m.Trace.Emit(obs.SessionEstablish(m.host.Now(), m.host.ID(), s.ID, len(s.Backups)))
	}
	if m.Met != nil {
		m.Met.ActiveSessions.Add(1)
	}
	if m.host.Now() >= m.probeDue {
		m.probeDue = m.host.Now() + probeInterval
	}
	m.armProbes(m.probeDue)
	return s
}

// Close tears a session down and releases its resources.
func (m *Manager) Close(id uint64) {
	s, ok := m.sessions[id]
	if !ok || !s.alive {
		return
	}
	s.alive = false
	if m.Met != nil {
		m.Met.ActiveSessions.Add(-1)
	}
	m.eng.Teardown(s.Active)
	delete(m.sessions, id)
}

// BackupCount computes γ per Eq. 2:
//
//	γ = min( ⌊U · (Σ qi_λ/qi_req + F_λ/F_req)⌋ , C−1 )
//
// where C counts all qualified graphs found by the initial composition.
func (m *Manager) BackupCount(s *Session) int {
	qratio := s.Active.QoS.Ratio(s.Req.QoSReq)
	freq := s.Req.FailReq
	if freq <= 0 {
		freq = 0.1 // permissive default when the user gave no bound
	}
	fratio := s.Active.FailProb() / freq
	gamma := int(math.Floor(m.cfg.U * (qratio + fratio)))
	if c := len(s.Pool) + 1; gamma > c-1 {
		gamma = c - 1
	}
	if gamma > m.cfg.MaxBackups {
		gamma = m.cfg.MaxBackups
	}
	if gamma < 0 {
		gamma = 0
	}
	return gamma
}

// refreshBackups re-selects the maintained backup set for s (§5.2): first a
// backup excluding each single component of the active graph — starting from
// the bottleneck components with the largest failure probabilities — then
// backups excluding pairs, and so on, each time preferring the candidate
// with the largest overlap with the active graph for cheap switchover.
func (m *Manager) refreshBackups(s *Session) {
	s.setGraphs(s.Active, SelectBackups(s.Active, s.Pool, m.BackupCount(s), m.cfg.DisjointBackups))
}

// SelectBackups implements the backup selection rule. Exported for the
// ablation benchmarks. pool must not contain the active graph itself.
func SelectBackups(active *service.Graph, pool []*service.Graph, gamma int, disjoint bool) []*service.Graph {
	if gamma <= 0 || len(pool) == 0 {
		return nil
	}
	if disjoint {
		return selectDisjoint(active, pool, gamma)
	}
	// Components of the active graph ordered by failure probability
	// descending: cover bottleneck components first.
	comps := active.Components()
	sort.SliceStable(comps, func(i, j int) bool { return comps[i].FailProb > comps[j].FailProb })

	chosen := make([]*service.Graph, 0, gamma)
	keys := make([]string, len(pool))
	for i, g := range pool {
		keys[i] = g.Key()
	}
	used := make(map[string]bool)
	pick := func(exclude ...string) {
		if len(chosen) >= gamma {
			return
		}
		best, bestOverlap := -1, -1
		for i, g := range pool {
			if used[keys[i]] {
				continue
			}
			excluded := false
			for _, id := range exclude {
				if g.Contains(id) {
					excluded = true
					break
				}
			}
			if excluded {
				continue
			}
			if ov := g.Overlap(active); ov > bestOverlap {
				best, bestOverlap = i, ov
			}
		}
		if best >= 0 {
			used[keys[best]] = true
			chosen = append(chosen, pool[best])
		}
	}
	// Single-component failures, bottleneck first.
	for _, c := range comps {
		pick(c.ID)
	}
	// Pairs of components (largest combined failure probability first, which
	// the comps ordering approximates).
	for i := 0; i < len(comps) && len(chosen) < gamma; i++ {
		for j := i + 1; j < len(comps) && len(chosen) < gamma; j++ {
			pick(comps[i].ID, comps[j].ID)
		}
	}
	// Fill any remaining slots with the largest-overlap unused graphs.
	pick()
	for len(chosen) < gamma {
		before := len(chosen)
		pick()
		if len(chosen) == before {
			break
		}
	}
	return chosen
}

func selectDisjoint(active *service.Graph, pool []*service.Graph, gamma int) []*service.Graph {
	var chosen []*service.Graph
	for _, g := range pool {
		if len(chosen) >= gamma {
			break
		}
		if g.Overlap(active) == 0 {
			chosen = append(chosen, g)
		}
	}
	return chosen
}
