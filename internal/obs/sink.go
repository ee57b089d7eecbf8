package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/p2p"
)

// JSONLSink writes events as one JSON object per line through a buffered
// writer. Marshalling is hand-rolled (strconv appends into a reused scratch
// buffer), so a steady-state emission allocates nothing. Field order is
// fixed, so traces from identical runs are byte-identical.
//
// The sink is safe for concurrent use (the live runtime emits from many
// goroutines); under the single-threaded simulator the mutex is uncontended.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
	n   int64
}

// NewJSONLSink wraps w in a buffered JSONL event writer. Call Flush before
// closing the underlying file.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// Emit writes one event line.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	s.buf = appendEvent(s.buf[:0], ev)
	s.w.Write(s.buf)
	s.n++
	s.mu.Unlock()
}

// Count returns how many events have been emitted.
func (s *JSONLSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Flush drains the buffer to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// appendEvent appends the fixed-order JSON encoding of ev plus a newline.
func appendEvent(b []byte, ev Event) []byte {
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, int64(ev.TS), 10)
	b = append(b, `,"kind":`...)
	b = appendString(b, ev.Kind)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(ev.Node), 10)
	if ev.Req != 0 {
		b = append(b, `,"req":`...)
		b = strconv.AppendUint(b, ev.Req, 10)
	}
	if ev.PID != 0 {
		b = append(b, `,"pid":`...)
		b = strconv.AppendUint(b, ev.PID, 10)
	}
	if ev.PPID != 0 {
		b = append(b, `,"ppid":`...)
		b = strconv.AppendUint(b, ev.PPID, 10)
	}
	if ev.Peer != p2p.NoNode {
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(ev.Peer), 10)
	}
	if ev.Fn != "" {
		b = append(b, `,"fn":`...)
		b = appendString(b, ev.Fn)
	}
	if ev.Comp != "" {
		b = append(b, `,"comp":`...)
		b = appendString(b, ev.Comp)
	}
	if ev.Hops != 0 {
		b = append(b, `,"hops":`...)
		b = strconv.AppendInt(b, int64(ev.Hops), 10)
	}
	if ev.Budget != 0 {
		b = append(b, `,"budget":`...)
		b = strconv.AppendInt(b, int64(ev.Budget), 10)
	}
	if ev.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, int64(ev.Bytes), 10)
	}
	if ev.Dur != 0 {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, int64(ev.Dur), 10)
	}
	if ev.Dom != 0 {
		b = append(b, `,"dom":`...)
		b = strconv.AppendInt(b, int64(ev.Dom), 10)
	}
	if ev.Note != "" {
		b = append(b, `,"note":`...)
		b = appendString(b, ev.Note)
	}
	b = append(b, '}', '\n')
	return b
}

// appendString appends a JSON string. Event strings (kinds, component IDs,
// reasons) are plain ASCII; anything needing escapes takes the slow path.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// MemSink collects events in memory, for tests and in-process summaries.
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (m *MemSink) Emit(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

// Events returns a copy of everything collected so far.
func (m *MemSink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// MultiTracer fans one event out to several sinks (e.g. a file trace and an
// in-memory summary at once).
type MultiTracer []Tracer

// Emit forwards to every sink.
func (m MultiTracer) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// ScanTrace decodes a JSONL trace one event at a time, calling fn for each —
// the streaming path every trace consumer should prefer: memory stays
// O(longest line) regardless of trace size, so multi-gigabyte sweep traces
// scan without buffering. fn returning an error stops the scan and returns
// that error.
func ScanTrace(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := ev.UnmarshalJSON(raw); err != nil {
			return fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}
