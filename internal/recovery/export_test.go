package recovery

import (
	"slices"

	"repro/internal/p2p"
	"repro/internal/qos"
)

// ProbeInterval is the maintenance period and BackupEvery the share of walks
// that go on through the backups, for the tests that measure them.
const (
	ProbeInterval = probeInterval
	BackupEvery   = backupEvery
)

// WalkPeers returns the peers of the session's full maintenance walk in
// visiting order, and how many of them belong to the active graph.
func WalkPeers(s *Session) ([]p2p.NodeID, int) {
	stops, active := s.plan()
	peers := make([]p2p.NodeID, len(stops))
	for i, st := range stops {
		peers[i] = st.Peer
	}
	return peers, active
}

// FullWalk returns the rec.probe that starts a full walk of s from its
// source m, as a tick would send it.
func FullWalk(m *Manager, s *Session) p2p.Message {
	stops, _ := s.plan()
	return p2p.Message{
		Type: MsgProbe, From: m.host.ID(), To: stops[0].Peer, Size: walkSize(len(stops)),
		Payload: newWalk(s, m.host.ID(), stops),
	}
}

// Arrive hands msg to m's rec.probe handler, as if it had just arrived.
func Arrive(m *Manager, msg p2p.Message) { m.onProbe(m.host, msg) }

// Pong is what one rec.pong carried back to the source.
type Pong struct {
	Peers   []p2p.NodeID    // the walk's stops, in order
	Comps   [][]string      // the components each stop was asked about
	Avail   []qos.Resources // each stop's slot
	Missing []string        // what the stops reported missing
}

// TapPongs shows fn a copy of every rec.pong m receives, before m handles it.
func TapPongs(m *Manager, fn func(Pong)) {
	m.host.Handle(MsgPong, func(n p2p.Node, msg p2p.Message) {
		wm := msg.Payload.(*walkMsg)
		p := Pong{Avail: slices.Clone(wm.Avail), Missing: slices.Clone(wm.Missing)}
		for _, st := range wm.Stops {
			p.Peers = append(p.Peers, st.Peer)
			p.Comps = append(p.Comps, st.Comps)
		}
		fn(p)
		m.onPong(n, msg)
	})
}

// TryRecovery starts s's recovery at m as a detected failure would: it picks
// the backup to switch over to and sends its walk, without running the clock.
func TryRecovery(m *Manager, s *Session) { m.tryRecovery(s) }
