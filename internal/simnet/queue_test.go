package simnet

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
)

// sortedQueue is the reference the event heap must match: every pending
// event in a plain list, sorted by (at, seq) whenever one is taken, and the
// crash model's parked timers beside it.
type sortedQueue struct {
	now     time.Duration
	seq     uint64
	pending []refEvent
	parked  [][]int     // per node, parked event ids in due order
	down    []bool      // per node
	state   map[int]int // event id → refPending, refParked or refDone
	fired   []int
}

type refEvent struct {
	at   time.Duration
	seq  uint64
	id   int
	node int // -1: a global event
}

const (
	refPending = iota
	refParked
	refDone
)

func (q *sortedQueue) schedule(d time.Duration, id, node int) {
	q.pending = append(q.pending, refEvent{q.now + max(d, 0), q.seq, id, node})
	q.seq++
	q.state[id] = refPending
}

func (q *sortedQueue) stop(id int) {
	switch q.state[id] {
	case refPending:
		q.pending = slices.DeleteFunc(q.pending, func(e refEvent) bool { return e.id == id })
	case refParked:
		for n := range q.parked {
			q.parked[n] = slices.DeleteFunc(q.parked[n], func(p int) bool { return p == id })
		}
	}
	q.state[id] = refDone
}

func (q *sortedQueue) step() bool {
	if len(q.pending) == 0 {
		return false
	}
	slices.SortFunc(q.pending, func(a, b refEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	e := q.pending[0]
	q.pending = q.pending[1:]
	q.now = e.at
	if e.node >= 0 && q.down[e.node] {
		q.parked[e.node] = append(q.parked[e.node], e.id)
		q.state[e.id] = refParked
		return true
	}
	q.fire(e.id)
	return true
}

func (q *sortedQueue) fire(id int) {
	q.state[id] = refDone
	q.fired = append(q.fired, id)
}

func (q *sortedQueue) recover(node int) {
	if !q.down[node] {
		return
	}
	q.down[node] = false
	for _, id := range q.parked[node] {
		q.fire(id)
	}
	q.parked[node] = nil
}

// TestEventHeapMatchesSortedQueue drives the simulator and the sorted
// reference through the same random interleavings of Schedule,
// ScheduleCall, After on nodes that fail and recover, Stop on live, parked,
// fired and already stopped timers (a stale handle whose event struct went
// on to carry a later event among them) and Step: the events fire in the
// same order and Pending agrees after every operation.
func TestEventHeapMatchesSortedQueue(t *testing.T) {
	const nodes = 3
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw, ns := newTestNet(nodes)
		sim := nw.Sim()
		ref := &sortedQueue{parked: make([][]int, nodes), down: make([]bool, nodes), state: map[int]int{}}
		var fired []int
		record := func(arg any) { fired = append(fired, arg.(int)) }
		type handle struct {
			t  p2p.Timer
			id int
		}
		var handles []handle
		for op, id := 0, 0; op < 2000; op++ {
			d := time.Duration(rng.Intn(12)-2) * time.Millisecond // some negative: clamped
			switch r := rng.Intn(20); {
			case r < 4:
				sim.ScheduleCall(d, record, id)
				ref.schedule(d, id, -1)
				id++
			case r < 7:
				i := id
				handles = append(handles, handle{sim.Schedule(d, func() { record(i) }), i})
				ref.schedule(d, i, -1)
				id++
			case r < 10:
				i, n := id, rng.Intn(nodes)
				handles = append(handles, handle{ns[n].After(d, func() { record(i) }), i})
				ref.schedule(d, i, n)
				id++
			case r < 13 && len(handles) > 0:
				h := handles[rng.Intn(len(handles))]
				h.t.Stop()
				ref.stop(h.id)
			case r == 13:
				n := rng.Intn(nodes)
				nw.Fail(p2p.NodeID(n))
				ref.down[n] = true
			case r == 14:
				n := rng.Intn(nodes)
				nw.Recover(p2p.NodeID(n))
				ref.recover(n)
			default:
				if got, want := sim.Step(), ref.step(); got != want {
					t.Fatalf("seed %d op %d: Step = %v, reference %v", seed, op, got, want)
				}
			}
			if !slices.Equal(fired, ref.fired) {
				t.Fatalf("seed %d op %d: fired %v, reference %v", seed, op, fired, ref.fired)
			}
			if got, want := sim.Pending(), len(ref.pending); got != want {
				t.Fatalf("seed %d op %d: Pending = %d, reference %d", seed, op, got, want)
			}
			if sim.Now() != ref.now {
				t.Fatalf("seed %d op %d: clock %v, reference %v", seed, op, sim.Now(), ref.now)
			}
		}
	}
}
