package topology

import (
	"math/rand"
	"runtime"
	"testing"
)

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestMemoryBudget100k is the committed memory budget for the 100k-node
// sweep: a 100,000-node IP graph plus a 10,000-peer compact mesh overlay
// (including one warmed route table) must hold under 64 MB of live heap.
// The measured figure is ~6 MB — the budget leaves headroom for allocator
// rounding and GC timing, not for regressions: the legacy representation's
// peer-latency matrix alone would be 800 MB at this scale, so any backslide
// toward it blows the gate immediately. Wired into scripts/ci.sh next to the
// coverage floor.
func TestMemoryBudget100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node build skipped in -short")
	}
	const budget = 64 << 20

	before := liveHeap()
	rng := rand.New(rand.NewSource(1))
	g := GeneratePowerLaw(100_000, 2, 2, 30, rng)
	ov := BuildOverlay(g, OverlayConfig{NumPeers: 10_000, Degree: 4, Compact: true}, rng)
	if _, ok := ov.Route(0, ov.N()-1); !ok {
		t.Fatal("compact overlay is not connected")
	}
	after := liveHeap()

	live := after - before
	t.Logf("100k nodes / 10k peers: %d links, live heap %.1f MB (budget %d MB)",
		ov.NumLinks(), float64(live)/(1<<20), budget>>20)
	if live > budget {
		t.Fatalf("live heap %.1f MB exceeds the committed %d MB budget",
			float64(live)/(1<<20), budget>>20)
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(ov)
}
