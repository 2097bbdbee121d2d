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

// layers are the per-layer CPU buckets: the jade package names, plus
// runtime_gc for the collector's background goroutines and other for
// stacks without a jade frame (the benchmark's own bookkeeping, the
// profiler's signal handling).
var layers = []string{
	"sim", "cluster", "sqlengine", "rubis", "legacy", "l4", "plb", "cjdbc",
	"selector", "netsim", "trace", "obs", "obs_alert", "obs_attrib", "fluid",
	"invariant", "core", "fractal", "config", "adl", "refresh", "metrics",
	"root", "runtime_gc", "other",
}

var layerSet = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// A cpuSample is one decoded profile sample: the stack's function
// names, innermost first, and the CPU nanoseconds it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// layerOfFunc maps a profile function name to its layer, or "" when the
// function is outside the jade module.
func layerOfFunc(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i] // drop receivers and type arguments, which hold dots and slashes
	}
	dir, rest := "", fn
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, rest = fn[:i+1], fn[i+1:]
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg = dir + pkg
	switch {
	case pkg == "jade":
		return "root"
	case pkg == "jade/internal/obs/alert":
		return "obs_alert"
	case pkg == "jade/internal/obs/attrib":
		return "obs_attrib"
	case strings.HasPrefix(pkg, "jade/internal/"):
		if l := strings.TrimPrefix(pkg, "jade/internal/"); layerSet[l] {
			return l
		}
		return "other"
	}
	return ""
}

// gcRoots are the entry functions of the collector's own goroutines.
// Allocation, GC assists and write barriers run on the allocating
// goroutine's stack and are charged to the layer that allocated.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// layerOfStack charges a stack (innermost frame first) to the layer of
// its innermost jade frame.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if gcRoots[fn] {
			return "runtime_gc"
		}
	}
	return "other"
}

// attribute sums the samples' CPU seconds per layer.
func attribute(samples []cpuSample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, s := range samples {
		out[layerOfStack(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}

// decodeCPUProfile reads a gzip-compressed profile.proto as written by
// runtime/pprof and returns its samples. The last sample value is taken
// as the weight: cpu/nanoseconds in a CPU profile.
func decodeCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type location struct{ funcs []uint64 } // innermost (inlined) first
	var (
		strs      []string
		funcNames = map[uint64]uint64{} // function id -> string index
		locs      = map[uint64]location{}
		rawStacks [][]uint64
		weights   []int64
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var ids, vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids = appendVarints(ids, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("profile: sample without values")
			}
			rawStacks = append(rawStacks, ids)
			weights = append(weights, int64(vals[len(vals)-1]))
		case 4: // Location
			var id uint64
			var loc location
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							loc.funcs = append(loc.funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = loc
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
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	samples := make([]cpuSample, len(rawStacks))
	for i, ids := range rawStacks {
		s := cpuSample{nanos: weights[i]}
		for _, id := range ids {
			for _, f := range locs[id].funcs {
				idx := funcNames[f]
				if idx >= uint64(len(strs)) {
					return nil, errors.New("profile: function name outside string table")
				}
				s.stack = append(s.stack, strs[idx])
			}
		}
		samples[i] = s
	}
	return samples, nil
}

// appendVarints appends one repeated-varint field occurrence: a single
// value, or a packed run when the field arrived length-delimited.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField walks one protobuf message. Varint fields arrive in v with
// b nil; length-delimited fields arrive in b; fixed-width fields are
// skipped (profile.proto has none this decoder reads).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("profile: short fixed field")
			}
			msg = msg[w:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
