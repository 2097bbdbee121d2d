package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

// protobuf encoding helpers for the synthetic profile.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbPacked(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile encodes stacks (innermost first) as a CPU profile:
// one function and one location per distinct name, except that
// inlined[leaf] = caller puts both in one location, as the compiler's
// inlining does. Sample i weighs weights[i] nanoseconds.
func syntheticProfile(t *testing.T, stacks [][]string, weights []int64, inlined map[string]string) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var msg []byte
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		f := pbVarint(nil, 1, id)
		f = pbVarint(f, 2, str(name))
		msg = pbBytes(msg, 5, f)
		return id
	}
	locID := map[string]uint64{}
	loc := func(name string) uint64 {
		if id, ok := locID[name]; ok {
			return id
		}
		id := uint64(len(locID) + 1)
		locID[name] = id
		l := pbVarint(nil, 1, id)
		l = pbVarint(l, 3, 0x1000+id) // address: a field the decoder must skip
		l = pbBytes(l, 4, pbVarint(nil, 1, fn(name)))
		if caller, ok := inlined[name]; ok {
			l = pbBytes(l, 4, pbVarint(nil, 1, fn(caller)))
		}
		msg = pbBytes(msg, 4, l)
		return id
	}
	for i, stack := range stacks {
		var ids []uint64
		for j, name := range stack {
			if j > 0 && inlined[stack[j-1]] == name {
				continue // already inside the previous location
			}
			ids = append(ids, loc(name))
		}
		var s []byte
		if i%2 == 0 {
			s = pbBytes(s, 1, pbPacked(ids...))
			s = pbBytes(s, 2, pbPacked(1, uint64(weights[i])))
		} else { // the unpacked encoding is legal too
			for _, id := range ids {
				s = pbVarint(s, 1, id)
			}
			s = pbVarint(s, 2, 1)
			s = pbVarint(s, 2, uint64(weights[i]))
		}
		msg = pbBytes(msg, 2, s)
	}
	for _, s := range strs {
		msg = pbBytes(msg, 6, []byte(s))
	}
	msg = pbVarint(msg, 12, 10_000_000) // period
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestAttributionOnSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// malloc under the lexer: charged to sqlengine, not to the runtime.
		{"runtime.mallocgc", "runtime.newobject", "jade/internal/sqlengine.(*lexer).next", "jade/internal/sqlengine.Parse", "jade/internal/legacy.(*MySQL).Exec", "jade.RunScenario", "main.main"},
		// a GC assist on the allocating goroutine stays with its layer.
		{"runtime.gcAssistAlloc", "runtime.mallocgc", "jade/internal/cluster.(*Node).Submit", "jade/internal/sim.(*Engine).Step", "jade.RunScenario"},
		// sort called from obs: innermost jade frame is obs.
		{"slices.pdqsortOrdered[go.shape.float64]", "sort.Float64s", "jade/internal/obs.(*Histogram).snapshot", "jade/internal/obs.(*Registry).Snapshot", "jade.RunScenario.func12", "jade/internal/sim.(*Engine).Step"},
		// the collector's own goroutines.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.sweepone", "runtime.bgsweep"},
		// nothing of jade's and not the collector.
		{"runtime.futex", "runtime.notesleep", "runtime.mstart"},
		// sub-packages of obs, a generic method, the root package, an unlisted package.
		{"jade/internal/obs/alert.(*Engine).Tick", "jade/internal/sim.(*Engine).Step"},
		{"jade/internal/obs/attrib.Analyze", "jade.RunScenario"},
		{"jade/internal/refresh.(*View[go.shape.struct { jade/internal/core.Min float64 }]).Get", "jade/internal/core.(*SizingManager).tick"},
		{"jade.RunScenario.func3", "jade/internal/sim.(*Engine).Step"},
		{"jade/internal/report.(*Chart).Render", "main.main"},
	}
	weights := []int64{30e6, 10e6, 20e6, 10e6, 10e6, 5e6, 5e6, 4e6, 3e6, 2e6, 1e6}
	want := map[string]float64{
		"sqlengine": 0.030, "cluster": 0.010, "obs": 0.020, "runtime_gc": 0.020,
		"other": 0.006, "obs_alert": 0.005, "obs_attrib": 0.004, "refresh": 0.003, "root": 0.002,
	}
	inlined := map[string]string{"jade/internal/sqlengine.(*lexer).next": "jade/internal/sqlengine.Parse"}

	samples, err := decodeCPUProfile(syntheticProfile(t, stacks, weights, inlined))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if !reflect.DeepEqual(s.stack, stacks[i]) || s.nanos != weights[i] {
			t.Errorf("sample %d: got %v (%d ns), want %v (%d ns)", i, s.stack, s.nanos, stacks[i], weights[i])
		}
	}

	got := attribute(samples)
	var sum, total float64
	for _, w := range weights {
		total += float64(w) / 1e9
	}
	for layer, sec := range got {
		if !layerSet[layer] {
			t.Errorf("CPU charged to %q, which is not a declared layer", layer)
		}
		if math.Abs(sec-want[layer]) > 1e-12 {
			t.Errorf("layer %s: %.3f s, want %.3f s", layer, sec, want[layer])
		}
		sum += sec
	}
	if len(got) != len(want) {
		t.Errorf("charged %d layers, want %d: %v", len(got), len(want), got)
	}
	if math.Abs(sum-total) > 1e-12 {
		t.Errorf("layer shares sum to %.6f s of %.6f s", sum, total)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeCPUProfile([]byte("not a profile")); err == nil {
		t.Error("no error for a profile that is not gzip")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // a sample claiming 127 bytes, with one
	zw.Close()
	if _, err := decodeCPUProfile(buf.Bytes()); err == nil {
		t.Error("no error for a truncated message")
	}
}

var spinSink float64

//go:noinline
func spinForProfile(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
}

// TestDecodeRuntimeProfile decodes what runtime/pprof really writes:
// the busy function must own nearly all the CPU.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.stack {
			if fn == "jade/benchmark.spinForProfile" {
				spin += s.nanos
				break
			}
		}
	}
	if total < int64(100*time.Millisecond) {
		t.Skipf("profiler delivered only %d ns of samples", total)
	}
	if spin*2 < total {
		t.Errorf("spinForProfile owns %d of %d sampled ns", spin, total)
	}
}
