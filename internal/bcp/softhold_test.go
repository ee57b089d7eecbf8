package bcp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/qos"
)

// TestSoftHoldsExpireInTheirOwnOrder holds one engine's expiry queue to what
// a timer per hold would do: holds made at staggered instants and three at
// one instant, two of them committed at the head of the queue, one key
// re-held after its commit and one after its expiry, and three holds whose
// expiry comes due while the peer is down. Every uncommitted hold is released
// at exactly its making plus SoftTimeout (a parked one when its peer
// recovers), holds are released in the order they were made, and a committed
// hold is never released.
func TestSoftHoldsExpireInTheirOwnOrder(t *testing.T) {
	nw, engines := discoveryRing(1)
	e, sim := engines[0], nw.Sim()
	var capacity, res qos.Resources
	capacity[qos.CPU], res[qos.CPU] = 100, 1
	e.ledger = qos.NewLedger(capacity)
	const timeout = 4 * time.Second
	e.cfg.SoftTimeout = timeout
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	if sim.Now() != 0 {
		t.Fatalf("the clock starts at %v", sim.Now())
	}

	type hold struct {
		key       softKey
		made, due time.Duration
		seq       int
		cancel    p2p.Timer // the hold's own entry, which a re-made hold's is not
		committed bool
		released  time.Duration // -1 while live
	}
	var holds []*hold
	var released []*hold
	// observe records every live hold that left the map, or was re-made,
	// since it last looked, and checks the ledger against the live holds and
	// the committed ones: a committed hold released would show there.
	observe := func() {
		live, hard := 0, 0
		for _, h := range holds {
			switch cur, ok := e.soft[h.key]; {
			case h.committed:
				hard++
			case h.released >= 0:
			case !ok || cur.cancel != h.cancel:
				h.released = sim.Now()
				released = append(released, h)
			default:
				live++
			}
		}
		if got := e.ledger.SoftAllocated()[qos.CPU]; got != float64(live) {
			t.Errorf("at %v the ledger soft-holds %v, want the %d live holds'", sim.Now(), got, live)
		}
		if got := e.ledger.HardAllocated()[qos.CPU]; got != float64(hard) {
			t.Errorf("at %v the ledger hard-holds %v, want the %d committed holds'", sim.Now(), got, hard)
		}
	}
	// Every firing of the engine's one expiry callback is observed.
	e.softs.Init(e.host, func(key softKey) { e.expireSoft(key); observe() })

	at := func(d time.Duration, f func()) { sim.Schedule(d-sim.Now(), func() { f(); observe() }) }
	soft := func(reqID uint64, compID string, due time.Duration) func() {
		return func() {
			if !e.holdSoft(reqID, compID, res) {
				t.Fatalf("hold (%d, %s) refused", reqID, compID)
			}
			key := softKey{reqID, compID}
			h := &hold{key: key, made: sim.Now(), due: due, seq: len(holds), cancel: e.soft[key].cancel, released: -1}
			holds = append(holds, h)
		}
	}
	commit := func(reqID uint64, compID string) func() {
		return func() {
			for _, h := range holds {
				if h.key == (softKey{reqID, compID}) && h.released < 0 && !h.committed {
					h.committed = true
				}
			}
			if !e.commitSession(reqID, compID, res, 0) {
				t.Fatalf("commit (%d, %s) refused", reqID, compID)
			}
		}
	}
	down, up := ms(7500), ms(10000)
	at(0, soft(1, "x", -1)) // committed below, at the head of the queue
	at(0, soft(2, "x", -1)) // likewise
	at(0, soft(3, "x", ms(4000)))
	at(ms(500), soft(4, "x", ms(4500)))
	at(ms(1000), commit(2, "x"))
	at(ms(1500), soft(5, "y", -1))
	at(ms(2000), commit(1, "x"))
	at(ms(2000), commit(5, "y"))
	at(ms(2500), soft(6, "x", ms(6500)))
	at(ms(3000), soft(5, "y", ms(7000))) // re-held after its commit
	at(ms(4200), soft(3, "x", up))       // re-held after its expiry; parked
	at(ms(5000), soft(7, "x", up))       // parked
	at(ms(5000), soft(8, "x", up))       // parked
	at(down, func() { nw.Fail(e.host.ID()) })
	at(up, func() { nw.Recover(e.host.ID()) })
	at(ms(10500), soft(9, "x", ms(14500))) // after the recovery
	sim.Run(ms(30000))

	for _, h := range holds {
		if !h.committed && h.released != h.due {
			t.Errorf("hold %v made at %v released at %v, want %v", h.key, h.made, h.released, h.due)
		}
	}
	if !slices.IsSortedFunc(released, func(a, b *hold) int { return a.seq - b.seq }) {
		for _, h := range released {
			t.Logf("released %v (hold %d) at %v", h.key, h.seq, h.released)
		}
		t.Error("holds were not released in the order they were made")
	}
	if len(released) != 8 || len(e.soft) != 0 {
		t.Errorf("%d holds released, %d still held: want 8 and 0", len(released), len(e.soft))
	}
}
