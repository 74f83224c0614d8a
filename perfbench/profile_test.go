package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func TestBucket(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"twolayer/internal/apps/asp.relaxRows", "twolayer/internal/apps/asp.(*ASP).run"}, "apps"},
		{[]string{"twolayer/internal/sim.(*Kernel).step"}, "sim"},
		{[]string{"twolayer/internal/par.(*mailbox).deliver"}, "par"},
		{[]string{"twolayer/internal/trace.(*Stream).Op"}, "par"},
		{[]string{"twolayer/internal/wantopo.(*WAN).Route", "twolayer/internal/network.(*Network).wanPath"}, "network"},
		{[]string{"twolayer/internal/faults.(*Plan).Decide"}, "faults"},
		{[]string{"twolayer/internal/analytic.(*Eval).rescanMin"}, "analytic"},
		{[]string{"twolayer/internal/core.loadDisk"}, "core"},
		{[]string{"iter.Pull[go.shape.struct {}].func2"}, "go.sched"},
		{[]string{"internal/runtime/atomic.(*Uint32).CompareAndSwap", "runtime.coroswitch_m", "runtime.mcall"}, "go.sched"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep"}, "go.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.memmove", "runtime.wbBufFlush1", "runtime.gcWriteBarrier2"}, "go.gc"},
		{[]string{"runtime.unlock2", "runtime.freeSomeWbufs", "runtime.bgsweep"}, "go.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "go.gc"},
		{[]string{"runtime.mallocgc", "twolayer/internal/par.(*Env).Send"}, "go.runtime"},
		{[]string{"runtime.memmove", "runtime.typedslicecopy", "twolayer/internal/par.(*runtime).Flush"}, "go.runtime"},
		{[]string{"runtime.duffcopy", "twolayer/internal/sim.(*Kernel).takeChain"}, "go.runtime"},
		{[]string{"slices.insertionSortCmpFunc[go.shape.struct { twolayer/internal/sim.at twolayer/internal/sim.Time }]"}, "std"},
		{[]string{"encoding/json.(*decodeState).object"}, "std"},
		{[]string{"main.(*bench).traced"}, "unattributed"},
		{[]string{"twolayer/internal/newpkg.F"}, "unattributed"},
		{[]string{"example.com/x.F"}, "unattributed"},
		{[]string{""}, "unattributed"},
		{nil, "unattributed"},
	}
	for _, c := range cases {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// pb builds protocol-buffer fields for the fixed test profile.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, p []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(field, p)
}

// fixedProfile is a four-sample CPU profile: ASP's kernel with an inlined
// frame, a GC mark worker, the coroutine handoff and an unsymbolized
// sample, mixing packed and unpacked repeated fields as pprof writers may.
func fixedProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"twolayer/internal/apps/asp.relaxRows", "twolayer/internal/apps/asp.(*ASP).run",
		"runtime.scanobject", "runtime.gcBgMarkWorker", "iter.Pull[go.shape.struct {}].func2"}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4))
	p = p.bytes(2, pb{}.packed(1, 1).packed(2, 1, 10e6))
	p = p.bytes(2, pb{}.varint(1, 2).varint(1, 3).varint(2, 2).varint(2, 20e6))
	p = p.bytes(2, pb{}.packed(1, 4).packed(2, 1, 10e6))
	p = p.bytes(2, pb{}.packed(1, 9).packed(2, 1, 0))
	for fn := uint64(1); fn <= 5; fn++ {
		p = p.bytes(5, pb{}.varint(1, fn).varint(2, fn+4))
	}
	// Location 1 holds relaxRows inlined into run: innermost line first.
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 1).varint(2, 10)).bytes(4, pb{}.varint(1, 2).varint(2, 20)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 3)))
	p = p.bytes(4, pb{}.varint(1, 3).bytes(4, pb{}.varint(1, 4)))
	p = p.bytes(4, pb{}.varint(1, 4).bytes(4, pb{}.varint(1, 5)))
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseFixedProfile(t *testing.T) {
	samples, err := parseProfile(fixedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{[]string{"twolayer/internal/apps/asp.relaxRows", "twolayer/internal/apps/asp.(*ASP).run"}, 10e6},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 20e6},
		{[]string{"iter.Pull[go.shape.struct {}].func2"}, 10e6},
		{nil, 0},
	}
	if len(samples) != len(want) {
		t.Fatalf("got %d samples, want %d: %v", len(samples), len(want), samples)
	}
	for i, s := range samples {
		if !slices.Equal(s.stack, want[i].stack) || s.value != want[i].value {
			t.Errorf("sample %d = %v, want %v", i, s, want[i])
		}
	}
	shares := layerShares(samples)
	wantShares := map[string]float64{"apps": 0.25, "apps.asp": 0.25, "go.gc": 0.5, "go.sched": 0.25}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	for l, v := range shares {
		if v != wantShares[l] {
			t.Errorf("share of %s = %v, want %v", l, v, wantShares[l])
		}
	}
}

// TestParseRuntimeProfile checks the decoder against what runtime/pprof
// actually writes.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += spin(1000)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		sum += layerShares(samples)[l]
	}
	if len(samples) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1 (%d samples)", sum, len(samples))
	}
	_ = x
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := range n {
		s += i * i
	}
	return s
}

// TestSpecDeclaresShares keeps BENCHMARK.json's per-layer list and the
// profile buckets in step.
func TestSpecDeclaresShares(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	for _, l := range append(slices.Clone(layers), "apps.asp") {
		if !declared[shareMetric(l)] {
			t.Errorf("profile bucket %s has no per-layer metric %s", l, shareMetric(l))
		}
	}
}

func TestCSVRows(t *testing.T) {
	out := []byte("Figure 3: title\napp,variant,x\nWater,unoptimized,1.00\napp,variant,x\nASP,optimized,FAILED(deadline)\n")
	rows := csvRows(out)
	if len(rows) != 2 || rows[1][2] != "FAILED(deadline)" {
		t.Fatalf("csvRows = %v", rows)
	}
	if cells, failed := countCells(out); cells != 2 || failed != 1 {
		t.Errorf("countCells = %d, %d; want 2, 1", cells, failed)
	}
}
