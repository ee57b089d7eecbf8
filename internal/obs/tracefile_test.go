package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func writeTraceFile(t *testing.T, path string, evs []Event) {
	t.Helper()
	tf, err := CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		tf.Emit(ev)
	}
	if tf.Count() != int64(len(evs)) {
		t.Fatalf("Count=%d want %d", tf.Count(), len(evs))
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
}

// readTrace streams a trace file into a slice.
func readTrace(path string) ([]Event, error) {
	var evs []Event
	err := StreamTrace(path, func(ev Event) error { evs = append(evs, ev); return nil })
	return evs, err
}

func TestTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	evs := sampleEvents()
	for _, name := range []string{"plain.jsonl", "packed.jsonl.gz"} {
		path := filepath.Join(dir, name)
		writeTraceFile(t, path, evs)
		got, err := readTrace(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(evs) {
			t.Fatalf("%s: read %d events, wrote %d", name, len(got), len(evs))
		}
		for i := range evs {
			if got[i] != evs[i] {
				t.Fatalf("%s: event %d changed: wrote %+v read %+v", name, i, evs[i], got[i])
			}
		}
	}
}

func TestTraceFileGzipActuallyCompresses(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl.gz")
	writeTraceFile(t, path, sampleEvents())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("no gzip magic: % x", raw[:2])
	}
	if bytes.Contains(raw, []byte(`"kind"`)) {
		t.Fatal("gz file contains plaintext JSON")
	}
}

// OpenTrace must sniff gzip by content, not file name: a compressed trace
// renamed without the .gz suffix still reads.
func TestOpenTraceSniffsRenamedGzip(t *testing.T) {
	dir := t.TempDir()
	gz := filepath.Join(dir, "t.jsonl.gz")
	writeTraceFile(t, gz, sampleEvents())
	renamed := filepath.Join(dir, "renamed.jsonl")
	if err := os.Rename(gz, renamed); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sampleEvents()) {
		t.Fatalf("read %d events", len(got))
	}
}

func TestOpenTraceMissingFile(t *testing.T) {
	if _, err := readTrace(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing file accepted")
	}
}
