package p2p

// Retained counts the entries anywhere in q's backing array, fired and
// stopped ones included, that still hold a value other than T's zero.
func Retained[T comparable](q *Timers[T]) int {
	var zero T
	n := 0
	for _, e := range q.q[:cap(q.q)] {
		if e.v != zero {
			n++
		}
	}
	return n
}
