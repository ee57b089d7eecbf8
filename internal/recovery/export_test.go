package recovery

import "repro/internal/p2p"

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
