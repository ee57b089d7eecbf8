package experiment

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// runCells executes n independent experiment cells with up to parallel
// workers. Every figure decomposes into cells — one (workload, algorithm) or
// (budget) or (recovery-variant) combination — that each build their own
// identically seeded cluster, Sim, and RNG streams, so cells never share
// mutable state and any execution order yields the same per-cell results.
//
// Determinism of the trace is preserved by spilling: when a shared tracer is
// configured, each cell emits into a private temp-file JSONL spill, and after
// all cells finish the spills are streamed back into the shared tracer in
// cell-index order through obs.StreamTrace. That is exactly the order a
// serial run emits in (cell i's events are contiguous and precede cell
// i+1's), so N-worker output is byte-identical to serial — the JSONL encoding
// carries only integer and string fields in fixed order, so a decode/re-emit
// round trip reproduces the original bytes. Spill memory is O(1) per
// in-flight cell regardless of trace size. (The capacity sweep's cells pass
// a nil shared tracer and trace nothing.) A cell whose spill file cannot be
// created falls back to an in-memory buffer. With parallel <= 1 the cells
// run inline, in order, emitting straight into the shared tracer.
//
// run receives the cell index and the tracer that cell must hand its cluster
// (nil when tracing is off).
func runCells(n, parallel int, shared obs.Tracer, run func(i int, tracer obs.Tracer)) {
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			run(i, shared)
		}
		return
	}
	tracers := make([]obs.Tracer, n)
	var spills []*cellSpill
	if shared != nil {
		spills = make([]*cellSpill, n)
		for i := range spills {
			spills[i] = newCellSpill()
			tracers[i] = spills[i].tracer()
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i, tracers[i])
			}
		}()
	}
	wg.Wait()
	for _, sp := range spills {
		sp.replay(shared)
	}
}

// cellSpill is one cell's private trace destination: a temp JSONL file, or an
// in-memory buffer when the file could not be created.
type cellSpill struct {
	file *obs.TraceFile
	path string
	mem  *obs.MemSink
}

func newCellSpill() *cellSpill {
	f, err := os.CreateTemp("", "spidercell-*.jsonl")
	if err != nil {
		return &cellSpill{mem: &obs.MemSink{}}
	}
	path := f.Name()
	f.Close()
	tf, err := obs.CreateTrace(path)
	if err != nil {
		os.Remove(path)
		return &cellSpill{mem: &obs.MemSink{}}
	}
	return &cellSpill{file: tf, path: path}
}

func (sp *cellSpill) tracer() obs.Tracer {
	if sp.mem != nil {
		return sp.mem
	}
	return sp.file
}

// replay streams this cell's events into shared in emission order and
// discards the spill. A spill that cannot be read back would silently break
// the byte-identical determinism contract, so I/O failures are loud.
func (sp *cellSpill) replay(shared obs.Tracer) {
	if sp.mem != nil {
		for _, ev := range sp.mem.Events() {
			shared.Emit(ev)
		}
		return
	}
	if err := sp.file.Close(); err != nil {
		panic(fmt.Sprintf("experiment: closing cell trace spill: %v", err))
	}
	err := obs.StreamTrace(sp.path, func(ev obs.Event) error {
		shared.Emit(ev)
		return nil
	})
	os.Remove(sp.path)
	if err != nil {
		panic(fmt.Sprintf("experiment: replaying cell trace spill: %v", err))
	}
}
