package bcp

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
