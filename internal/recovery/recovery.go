// Package recovery implements SpiderNet's proactive failure recovery (§5 of
// the paper). The application sender maintains a small, adaptively sized set
// of backup service graphs per active session, monitors them with one
// low-rate maintenance walk, and repairs a broken session by fast switchover
// to the best live backup — falling back to a reactive BCP re-composition
// only when every backup has become unqualified too.
package recovery

import (
	"math"
	"slices"
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
	MsgProbe   = "rec.probe"   // maintenance walk, from stop to stop
	MsgPong    = "rec.pong"    // the walk returning to the source
	MsgPing    = "rec.ping"    // direct per-peer liveness check that localizes a silence
	MsgPingAck = "rec.pingack" // liveness confirmation
)

// Config tunes the recovery manager.
type Config struct {
	// U is the configurable upper-bound factor of the backup-count formula
	// (Eq. 2).
	U float64
	// MaxBackups is an absolute cap on maintained backups per session.
	MaxBackups int
	// Proactive enables recovery: backup maintenance, and BCP
	// re-composition once the backups are gone. When false the manager only
	// detects failures (the paper's "without recovery" baseline).
	Proactive bool
	// DisjointBackups selects fully peer-disjoint backups instead of the
	// paper's overlap-maximizing rule (ablation).
	DisjointBackups bool
}

// Lease is how long a maintenance walk's renewal keeps a session's
// allocations on a peer of a clean wire, where one silent walk is a failure.
func (c Config) Lease() time.Duration { return c.lease(1) }

// lease lasts until a walk comes round after the longest repair — silences
// silent walks, the pings that localize the silence, a switchover attempt on
// every backup, then the tick and walk that renew the new graph.
func (c Config) lease(silences int) time.Duration {
	return time.Duration(silences+1)*(probeInterval+pongTimeout) + pingTimeout + time.Duration(c.MaxBackups)*setupTimeout
}

// DefaultConfig returns the settings used by the experiments.
func DefaultConfig() Config {
	return Config{
		U:          2.0,
		MaxBackups: 5,
		Proactive:  true,
	}
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
	failed      bool          // a rec.failure is open: recovery has not ended it
	brokenAt    time.Duration // when the failure began
	reattempt   int
}

// setGraphs is the one place the walked graphs change, so the cached plan
// never outlives them.
func (s *Session) setGraphs(active *service.Graph, backups []*service.Graph) {
	s.Active, s.Backups, s.stops = active, backups, nil
}

// Manager runs on every peer: on component hosts it answers maintenance
// walks and pings; on senders it owns the sessions and switches them over
// with BCP's reverse-path walk (bcp.Engine.Confirm).
type Manager struct {
	eng  *bcp.Engine
	host p2p.Node
	cfg  Config

	// Trace receives recovery lifecycle events when non-nil.
	Trace obs.Tracer

	sessions map[uint64]*Session // the live ones: Close alone ends one
	stats    Stats

	probeDue time.Duration             // when the next tick is due; 0 when none is armed
	ticks    p2p.Timers[time.Duration] // the maintenance ticks, by the instant each is for
	pongs    p2p.Timers[pongWait]      // the walks' deadlines
	ids      []uint64                  // tick's session order, reused across ticks
	waitSeq  uint64
	wait     map[uint64]func(ok bool) // pings awaiting their ack
	waits    p2p.Timers[uint64]       // and their timeouts
}

// walkMsg is one maintenance walk: it visits Stops in order, each writing its
// availability into its own slot of Avail and appending the expected
// components it no longer hosts to Missing, then bounces back to the origin as
// MsgPong. The source sends one *walkMsg per walk and every stop works on that
// object, finding its own entry by peer ID, so forwarding allocates nothing.
// Walks are never reused: a late pong or a straggling duplicate may still
// hold one.
type walkMsg struct {
	SessID  uint64
	ReqID   uint64 // the active graph's request, whose leases the walk renews
	Origin  p2p.NodeID
	Stops   []stop
	Avail   []qos.Resources // one slot per stop, in Stops order
	Missing []string        // component IDs a visited stop does not host

	avail [inlineStops]qos.Resources // backs Avail for the usual walk
}

// inlineStops is how many stops a walk's own array holds availability for; a
// longer walk allocates Avail apart.
const inlineStops = 8

// NewManager wires a recovery manager to a peer's BCP engine.
func NewManager(eng *bcp.Engine, cfg Config) *Manager {
	m := &Manager{
		eng:      eng,
		host:     eng.Host(),
		cfg:      cfg,
		sessions: make(map[uint64]*Session),
		wait:     make(map[uint64]func(bool)),
	}
	m.ticks.Init(m.host, m.onTick)
	m.pongs.Init(m.host, m.checkPong)
	m.waits.Init(m.host, func(id uint64) { m.reply(id, false) })
	m.host.Handle(MsgProbe, m.onProbe)
	m.host.Handle(MsgPong, m.onPong)
	m.host.Handle(MsgPing, m.onPing)
	m.host.Handle(MsgPingAck, m.onPingAck)
	return m
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Sessions returns the number of live sessions at this sender.
func (m *Manager) Sessions() int { return len(m.sessions) }

// Session returns a live session by ID, or nil.
func (m *Manager) Session(id uint64) *Session { return m.sessions[id] }

// Establish registers a freshly composed session (the output of
// bcp.Compose) and starts proactive maintenance. It computes the backup
// count γ from Eq. 2 and picks backups per §5.2.
func (m *Manager) Establish(req *service.Request, res bcp.Result) *Session {
	s := &Session{ID: req.ID, Req: req, Active: res.Best, Pool: slices.Clone(res.Backups), alive: true}
	m.sessions[s.ID] = s
	if m.cfg.Proactive {
		m.refreshBackups(s)
	}
	if m.Trace != nil {
		m.Trace.Emit(obs.SessionEstablish(m.host.Now(), m.host.ID(), s.ID, len(s.Backups)))
	}
	if m.host.Now() >= m.probeDue {
		m.probeDue = m.host.Now() + probeInterval
	}
	m.ticks.After(m.probeDue-m.host.Now(), m.probeDue)
	return s
}

// Close tears a session down and releases its resources.
func (m *Manager) Close(id uint64) {
	s, ok := m.sessions[id]
	if !ok {
		return
	}
	s.alive = false
	if s.failed && m.Trace != nil {
		m.Trace.Emit(obs.RecOutcome(m.host.Now(), m.host.ID(), id, obs.KindRecClosed, m.host.Now()-s.brokenAt))
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
