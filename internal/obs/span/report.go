package span

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Summary renders the forest-level rollup: tree counts, outcomes, orphans,
// where the aggregate setup time went, and the event count of every kind.
func Summary(f *Forest, title string) *metrics.Table {
	t := metrics.NewTable(title, "metric", "value")
	var trees, done, ok, subs int
	var tot PhaseTotals
	f.All(func(tr *Tree) {
		trees++
		if len(tr.Subs) > 0 {
			subs += len(tr.Subs)
		}
		if tr.Done {
			done++
			if tr.Ok {
				ok++
			}
		}
		tot.add(tr.Phases)
	})
	t.AddRow("events", f.Events)
	if f.Runs > 1 {
		t.AddRow("runs (sweep cells)", f.Runs)
	}
	t.AddRow("requests", trees)
	t.AddRow("completed", done)
	t.AddRow("ok", ok)
	if subs > 0 {
		t.AddRow("federated segments", subs)
	}
	t.AddRow("orphan events", len(f.Orphans))
	if f.WireDrops > 0 {
		t.AddRow("unattributed wire drops", f.WireDrops)
	}
	t.AddRow("total setup time", tot.Total())
	t.AddRow("  discovery", tot.Discovery)
	t.AddRow("  probe fan-out", tot.Probe)
	t.AddRow("  collect+select", tot.Collect)
	t.AddRow("  session commit", tot.Commit)
	t.AddRow("  unattributed wait", tot.Wait)
	t.AddRow("attribution", pct(tot.Attribution()))
	kinds := make([]string, 0, len(f.Kinds))
	for k := range f.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t.AddRow("events."+k, f.Kinds[k])
	}
	return t
}

// PhaseTotals aggregates phase partitions over many requests.
type PhaseTotals struct {
	Discovery, Probe, Collect, Commit, Wait time.Duration
	Reqs                                    int
}

func (p *PhaseTotals) add(q Phases) {
	p.Discovery += q.Discovery
	p.Probe += q.Probe
	p.Collect += q.Collect
	p.Commit += q.Commit
	p.Wait += q.Wait
	p.Reqs++
}

// Named returns the aggregate time claimed by named phases.
func (p PhaseTotals) Named() time.Duration {
	return p.Discovery + p.Probe + p.Collect + p.Commit
}

// Total returns the aggregate wall time.
func (p PhaseTotals) Total() time.Duration { return p.Named() + p.Wait }

// Attribution is the fraction of aggregate wall time in named phases.
func (p PhaseTotals) Attribution() float64 {
	if p.Total() == 0 {
		return 1
	}
	return float64(p.Named()) / float64(p.Total())
}

// Totals aggregates every tree's phase partition (including federated
// segments).
func (f *Forest) Totals() PhaseTotals {
	var tot PhaseTotals
	f.All(func(tr *Tree) { tot.add(tr.Phases) })
	return tot
}

// PhaseTable renders the per-phase latency breakdown across the forest: one
// row per phase with total, mean, and share of the aggregate setup time.
func PhaseTable(f *Forest, title string) *metrics.Table {
	tot := f.Totals()
	t := metrics.NewTable(title, "phase", "total", "mean/req", "share")
	total := tot.Total()
	row := func(name string, d time.Duration) {
		mean := time.Duration(0)
		if tot.Reqs > 0 {
			mean = d / time.Duration(tot.Reqs)
		}
		share := 0.0
		if total > 0 {
			share = float64(d) / float64(total)
		}
		t.AddRow(name, d, mean, pct(share))
	}
	row("discovery", tot.Discovery)
	row("probe fan-out", tot.Probe)
	row("collect+select", tot.Collect)
	row("session commit", tot.Commit)
	row("unattributed wait", tot.Wait)
	t.AddRow("requests", tot.Reqs, "", "")
	t.AddRow("attribution", pct(tot.Attribution()), "", "")
	return t
}

// Slowest returns the k top-level trees with the largest wall time, slowest
// first; ties break toward the smaller request ID. k <= 0 returns all.
func (f *Forest) Slowest(k int) []*Tree {
	out := append([]*Tree(nil), f.Trees...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].Req < out[j].Req
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// SlowTable renders the top-k slowest requests with their phase breakdowns.
func SlowTable(f *Forest, k int, title string) *metrics.Table {
	t := metrics.NewTable(title, "req", "status", "wall",
		"disc", "probe", "collect", "commit", "wait", "attr")
	for _, tr := range f.Slowest(k) {
		status := "pending"
		if tr.Done {
			if tr.Ok {
				status = "ok"
			} else {
				status = "fail"
			}
		}
		p := tr.Phases
		t.AddRow(tr.Req, status, tr.Wall, p.Discovery, p.Probe, p.Collect, p.Commit,
			p.Wait, pct(p.Attribution()))
	}
	return t
}

// waterfallWidth is the bar width of waterfall renderings, in cells.
const waterfallWidth = 48

// Waterfall renders one tree as an indented span waterfall: each line is a
// span with a bar positioned proportionally inside the request's wall time.
func Waterfall(t *Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req %d  wall %s  ", t.Req, t.Wall)
	switch {
	case !t.Done:
		b.WriteString("(incomplete)")
	case t.Ok:
		b.WriteString("(ok)")
	default:
		b.WriteString("(fail)")
	}
	b.WriteByte('\n')
	t0, wall := t.Root.Start, t.Wall
	t.Root.Walk(func(sp *Span, depth int) {
		name := strings.Repeat("  ", depth) + sp.Name
		if len(name) > 34 {
			name = name[:31] + "..."
		}
		fmt.Fprintf(&b, "%-34s |%s| %8s +%-8s", name, bar(sp, t0, wall), fmtDur(sp.Start-t0), fmtDur(sp.Dur()))
		if sp.Note != "" {
			b.WriteString("  " + sp.Note)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// bar renders a span's position inside [t0, t0+wall] as a fixed-width strip.
func bar(sp *Span, t0 time.Duration, wall time.Duration) string {
	cells := make([]byte, waterfallWidth)
	for i := range cells {
		cells[i] = ' '
	}
	if wall <= 0 {
		cells[0] = '#'
		return string(cells)
	}
	pos := func(ts time.Duration) int {
		p := int(int64(ts-t0) * int64(waterfallWidth) / int64(wall))
		if p < 0 {
			p = 0
		}
		if p > waterfallWidth-1 {
			p = waterfallWidth - 1
		}
		return p
	}
	lo, hi := pos(sp.Start), pos(sp.End)
	for i := lo; i <= hi; i++ {
		cells[i] = '='
	}
	cells[lo] = '#'
	cells[hi] = '#'
	return string(cells)
}

// Critical renders a tree's critical path, one step per line with the gap
// each hop contributed.
func Critical(t *Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req %d  critical path (%d steps, wall %s)\n", t.Req, len(t.Critical), t.Wall)
	for _, st := range t.Critical {
		node := "n?"
		if st.Node >= 0 {
			node = fmt.Sprintf("n%d", st.Node)
		}
		fmt.Fprintf(&b, "  %10s  +%-10s %-5s %s\n", fmtDur(st.TS), fmtDur(st.Gap), node, st.What)
	}
	return b.String()
}

// OrphanTable renders the unattributable events so malformed traces are
// debuggable rather than silently tidied.
func OrphanTable(f *Forest, title string) *metrics.Table {
	t := metrics.NewTable(title, "ts", "kind", "node", "req", "pid", "reason")
	for _, o := range f.Orphans {
		t.AddRow(o.Ev.TS, o.Ev.Kind, o.Ev.Node, o.Ev.Req, o.Ev.PID, o.Reason)
	}
	return t
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// fmtDur renders durations compactly with a stable unit (fractional
// milliseconds), so report columns align and diffs stay readable.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}
