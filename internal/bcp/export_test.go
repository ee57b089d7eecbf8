package bcp

import "repro/internal/p2p"

// MaxBackups is the backup cap, for the tests that check it is honoured.
const MaxBackups = maxBackups

// CollectedCredit reports the termination credit this engine's collector for
// reqID has summed so far, and whether such a collector exists (it is kept
// for 10×CollectTimeout after it closes).
func (e *Engine) CollectedCredit(reqID uint64) (uint64, bool) {
	col, ok := e.collectors[reqID]
	if !ok {
		return 0, false
	}
	return col.credit, true
}

// Remembered returns this engine's cached list of function fn, live or
// expired, and whether it has one.
func (e *Engine) Remembered(fn string) (List, bool) {
	l, ok := e.cache[fn]
	return l, ok
}

// TapProbes shows f every probe this engine receives, with its wire size,
// before the engine processes it; f may edit the probe (tests strip hints
// that way).
func (e *Engine) TapProbes(f func(pr *Probe, size int)) {
	e.host.Handle(MsgProbe, func(n p2p.Node, msg p2p.Message) {
		pr := msg.Payload.(Probe)
		f(&pr, msg.Size)
		msg.Payload = pr
		e.onProbe(n, msg)
	})
}
