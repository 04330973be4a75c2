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

// The traced run charges CPU-profile samples to layers. runtime/pprof
// writes a gzipped protocol buffer (the profile.proto schema); this file
// decodes the few fields attribution needs with a hand-rolled wire-format
// reader, so the benchmark adds no module dependency.

// stack is one profile sample: its CPU nanoseconds and its function names,
// leaf first, inlined callees before their callers.
type stack struct {
	ns    int64
	funcs []string
}

// layerPrefix marks the import paths whose packages are layers.
const layerPrefix = "spider/internal/"

// layerAlias folds helper packages into the layer they serve.
var layerAlias = map[string]string{"geo": "mobility", "opt": "alloc"}

// gcWorkers are the runtime's background GC entry points: a sample with no
// layer frame under one of them charges to runtime.gc.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf returns the layer a function charges to, or "" when it is not a
// layer function. Internal packages outside selfLayers (stats, chaos,
// energy, ...) are helpers like the standard library: they charge to the
// layer that called them.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, layerPrefix) {
		return ""
	}
	pkg := fn[len(layerPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if alias, ok := layerAlias[pkg]; ok {
		pkg = alias
	}
	for _, l := range selfLayers {
		if l.name == pkg {
			return pkg
		}
	}
	return ""
}

// attribute charges one sample to the innermost layer frame on its stack,
// else to runtime.gc for GC background work, else to other.
func attribute(s stack) string {
	for _, fn := range s.funcs {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range s.funcs {
		for _, w := range gcWorkers {
			if fn == w {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// chargeLayers adds each sample's CPU nanoseconds to its layer's total.
func chargeLayers(total map[string]int64, stacks []stack) {
	for _, s := range stacks {
		total[attribute(s)] += s.ns
	}
}

// decodeProfile parses a gzipped pprof CPU profile into its samples,
// valued by the "cpu"/"nanoseconds" sample type.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     [][2]int64 // sample_type: (type, unit) string indices
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> name string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, sub)
				case 2:
					s.values = appendPacked(s.values, v, sub)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return fields(sub, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	col := -1
	for i, vt := range types {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		st := stack{ns: int64(s.values[col])}
		for _, loc := range s.locs {
			for _, fid := range locations[loc] {
				st.funcs = append(st.funcs, str(funcNames[fid]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// rawSample is a sample before its location ids are resolved.
type rawSample struct {
	locs, values []uint64
}

// appendPacked appends one repeated varint field, which the encoder may
// write either packed (a length-delimited run, sub != nil) or one value
// per field.
func appendPacked(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

// errTruncated reports a message that ends inside a field.
var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value (wire types 0, 1 and 5, fixed ints widened)
// or its bytes (wire type 2, with v = 0).
func fields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}
