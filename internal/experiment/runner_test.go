package experiment

import (
	"testing"

	"repro/internal/obs"
)

// TestRunCellsCoversAllCells checks the worker pool executes every cell
// exactly once and replays buffered events in cell order.
func TestRunCellsCoversAllCells(t *testing.T) {
	const n = 37
	counts := make([]int, n)
	sink := &obs.MemSink{}
	runCells(n, 4, sink, func(i int, tracer obs.Tracer) {
		counts[i]++
		tracer.Emit(obs.Event{Kind: "cell", Hops: i})
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
	evs := sink.Events()
	if len(evs) != n {
		t.Fatalf("replayed %d events, want %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.Hops != i {
			t.Fatalf("event %d replayed out of cell order (got cell %d)", i, ev.Hops)
		}
	}
}
