package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one CPU-profile sample: the function names on its stack,
// leaf first, and the CPU time it stands for.
type stackSample struct {
	Frames []string
	Value  int64
}

// attribute charges every sample to one layer and returns each layer's share
// of the total (the shares sum to 1). A sample under the garbage collector
// (background mark worker or an allocation assist) goes to "runtime.gc";
// otherwise it goes to the deepest frame inside a repro/internal/<layer>
// package, whatever runtime or library code that frame called into; a stack
// with no such frame goes to "other". The simulator is single-threaded, so a
// layer's share times run_s bounds what speeding that layer up can save.
func attribute(samples []stackSample) map[string]float64 {
	const prefix = "repro/internal/"
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "other"
		for _, fn := range s.Frames {
			if rest, ok := strings.CutPrefix(fn, prefix); ok && layer == "other" {
				if i := strings.IndexAny(rest, "/."); i > 0 {
					layer = rest[:i]
				}
			}
			if fn == "runtime.gcBgMarkWorker" || fn == "runtime.gcAssistAlloc" {
				layer = "runtime.gc"
				break
			}
		}
		by[layer] += s.Value
		total += s.Value
	}
	shares := make(map[string]float64, len(by))
	if total == 0 {
		return shares
	}
	for layer, v := range by {
		shares[layer] = float64(v) / float64(total)
	}
	return shares
}

// decodeProfile reads a gzipped pprof protobuf, as runtime/pprof writes it,
// into stack samples weighted by the profile's last value type (CPU
// nanoseconds). Only the fields attribution needs are decoded; the standard
// library's own decoder is internal to it.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
		fnName  = map[uint64]uint64{}   // function id -> string-table index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{Value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.Frames = append(st.Frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field: packed when data is set,
// one value otherwise.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
