package obs

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
	"strings"
)

// TraceFile is a JSONL trace sink backed by a file, optionally gzipped.
// Close flushes every layer and reports the first error — trace writers must
// surface flush failures in their exit code rather than truncate silently.
type TraceFile struct {
	*JSONLSink
	gz *gzip.Writer
	f  *os.File
}

// CreateTrace creates (truncates) a trace file at path. A ".gz" suffix
// selects transparent gzip compression; the JSONL content is identical
// either way, so seeded traces stay byte-comparable after decompression.
func CreateTrace(path string) (*TraceFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	tf := &TraceFile{f: f}
	if strings.HasSuffix(path, ".gz") {
		tf.gz = gzip.NewWriter(f)
		tf.JSONLSink = NewJSONLSink(tf.gz)
	} else {
		tf.JSONLSink = NewJSONLSink(f)
	}
	return tf, nil
}

// Close flushes the sink, the gzip layer (if any), and the file, returning
// the first error encountered.
func (t *TraceFile) Close() error {
	err := t.Flush()
	if t.gz != nil {
		if e := t.gz.Close(); err == nil {
			err = e
		}
	}
	if e := t.f.Close(); err == nil {
		err = e
	}
	return err
}

// OpenTrace opens a trace file for reading, transparently decompressing
// gzip regardless of file name (detected by the 0x1f 0x8b magic bytes, so
// renamed or piped-through files still read correctly).
func OpenTrace(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, err
		}
		return &traceReader{r: zr, closers: []io.Closer{zr, f}}, nil
	}
	return &traceReader{r: br, closers: []io.Closer{f}}, nil
}

// StreamTrace decodes a (possibly gzipped) trace file one event at a time,
// calling fn for each — the constant-memory path for multi-GB sweep traces.
func StreamTrace(path string, fn func(Event) error) error {
	rc, err := OpenTrace(path)
	if err != nil {
		return err
	}
	defer rc.Close()
	return ScanTrace(rc, fn)
}

type traceReader struct {
	r       io.Reader
	closers []io.Closer
}

func (t *traceReader) Read(p []byte) (int, error) { return t.r.Read(p) }

func (t *traceReader) Close() error {
	var err error
	for _, c := range t.closers {
		if e := c.Close(); err == nil {
			err = e
		}
	}
	return err
}
