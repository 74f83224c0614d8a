package main

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file splits a CPU profile flat across the repository's layers: each
// sample is charged to the layer of its innermost frame, with the Go
// runtime split into scheduler, garbage collector and the rest. The
// profile format is the gzip-compressed protocol buffer runtime/pprof
// writes; the decoder below reads only the fields the split needs, so the
// benchmark stays on the standard library.

// Layer buckets. Every sample lands in exactly one of these, so the shares
// sum to one; apps.asp is reported besides, as a part of apps.
var layers = []string{
	"core", "sim", "par", "network", "faults", "apps", "analytic",
	"go.sched", "go.gc", "go.runtime", "std", "unattributed",
}

// moduleLayers maps each twolayer/internal package to its layer. The
// programming-model libraries the applications call (mpi, orca,
// collective, dsm) and the trace hooks belong to the par runtime; the
// graph, topology and regime packages the network consults belong to it.
var moduleLayers = map[string]string{
	"core": "core", "cliutil": "core", "stats": "core",
	"sim": "sim",
	"par": "par", "trace": "par", "mpi": "par", "orca": "par", "collective": "par", "dsm": "par",
	"network": "network", "topology": "network", "wantopo": "network", "regime": "network",
	"faults":   "faults",
	"apps":     "apps",
	"micro":    "apps",
	"analytic": "analytic",
}

// sample is one profile sample: its stack, innermost function first, and
// its weight (CPU nanoseconds).
type sample struct {
	stack []string
	value int64
}

// funcPackage returns the import path of a Go symbol such as
// "twolayer/internal/sim.(*Kernel).step" or "iter.Pull[...].func1".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return ""
}

// isGCFrame reports whether a runtime frame belongs to the garbage
// collector: background and assist marking, sweeping, scavenging and the
// write barrier.
func isGCFrame(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	name := fn[len("runtime."):]
	if strings.HasPrefix(name, "gc") || name == "GC" || name == "_GC" {
		return true
	}
	for _, s := range []string{"sweep", "Sweep", "scavenge", "markroot", "scanobject", "scanblock",
		"scanstack", "greyobject", "wbBuf", "bulkBarrier"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// schedFrames are runtime functions whose presence anywhere in a stack marks
// goroutine or coroutine switching; schedLeaves are runtime leaves that do
// nothing but scheduling and its locking.
var (
	schedFrames = map[string]bool{
		"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
		"runtime.gopark": true, "runtime.goready": true, "runtime.coroswitch": true,
		"runtime.coroswitch_m": true, "runtime.goschedImpl": true, "runtime.sysmon": true,
		"runtime.mcall": true, "runtime._System": true,
	}
	schedLeaves = map[string]bool{
		"runtime.gogo": true, "runtime.casgstatus": true, "runtime.execute": true,
		"runtime.runqget": true, "runtime.runqput": true, "runtime.runqgrab": true,
		"runtime.runqsteal": true, "runtime.stealWork": true, "runtime.wakep": true,
		"runtime.startm": true, "runtime.stopm": true, "runtime.handoffp": true,
		"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
		"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.lock2": true,
		"runtime.unlock2": true, "runtime.osyield": true, "runtime.usleep": true,
		"runtime.procyield": true, "runtime.ready": true, "runtime.chansend": true,
		"runtime.chanrecv": true, "runtime.selectgo": true, "runtime.semacquire1": true,
		"runtime.semrelease1": true, "runtime.corostart": true, "runtime.coroexit": true,
	}
)

// bucket returns the layer a sample is charged to.
func bucket(stack []string) string {
	if len(stack) == 0 {
		return "unattributed"
	}
	leaf := stack[0]
	pkg := funcPackage(leaf)
	switch {
	case strings.HasPrefix(pkg, "twolayer/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "twolayer/internal/"), "/")
		if l, ok := moduleLayers[mod]; ok {
			return l
		}
		return "unattributed"
	case pkg == "iter":
		return "go.sched"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, fn := range stack {
			if isGCFrame(fn) {
				return "go.gc"
			}
		}
		if schedLeaves[leaf] {
			return "go.sched"
		}
		for _, fn := range stack {
			if schedFrames[fn] {
				return "go.sched"
			}
		}
		return "go.runtime"
	case pkg == "" || pkg == "main" || strings.HasPrefix(pkg, "twolayer/") || strings.Contains(pkg, "."):
		// No symbol, the benchmark's own code, another twolayer package,
		// or a module outside the standard library.
		return "unattributed"
	}
	return "std"
}

// layerShares returns each layer's share of the samples' total weight, plus
// apps.asp, the share of the ASP kernels within apps.
func layerShares(samples []sample) map[string]float64 {
	var total int64
	sums := make(map[string]int64)
	for _, s := range samples {
		total += s.value
		sums[bucket(s.stack)] += s.value
		if len(s.stack) > 0 && strings.HasPrefix(funcPackage(s.stack[0]), "twolayer/internal/apps/asp") {
			sums["apps.asp"] += s.value
		}
	}
	shares := make(map[string]float64, len(layers)+1)
	for _, l := range append(layers, "apps.asp") {
		if total > 0 {
			shares[l] = float64(sums[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}

// topLeaves returns the n (layer, innermost function) pairs with the
// largest weight, as "layer function share" strings, for checking the
// bucketing by eye.
func topLeaves(samples []sample, n int) []string {
	var total int64
	byLeaf := make(map[string]int64)
	for _, s := range samples {
		total += s.value
		if len(s.stack) > 0 {
			byLeaf[bucket(s.stack)+" "+s.stack[0]] += s.value
		}
	}
	leaves := make([]string, 0, len(byLeaf))
	for k := range byLeaf {
		leaves = append(leaves, k)
	}
	slices.SortFunc(leaves, func(a, b string) int { return cmp.Compare(byLeaf[b], byLeaf[a]) })
	out := make([]string, 0, n)
	for _, k := range leaves[:min(n, len(leaves))] {
		out = append(out, fmt.Sprintf("%s %.4f", k, float64(byLeaf[k])/float64(total)))
	}
	return out
}

// parseProfile decodes a gzip-compressed pprof profile into samples
// weighted by the last sample value (CPU nanoseconds for a CPU profile).
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		rawSample [][]byte
		locFuncs  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcName  = make(map[uint64]int64)    // function id -> string table index
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			rawSample = append(rawSample, b)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcName[fid]; ok && i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	samples := make([]sample, 0, len(rawSample))
	for _, b := range rawSample {
		var locs []uint64
		var vals []int64
		err := eachField(b, func(f int, v uint64, p []byte) error {
			switch {
			case f == 1 && p == nil:
				locs = append(locs, v)
			case f == 1:
				return eachVarint(p, func(v uint64) { locs = append(locs, v) })
			case f == 2 && p == nil:
				vals = append(vals, int64(v))
			case f == 2:
				return eachVarint(p, func(v uint64) { vals = append(vals, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			continue
		}
		var stack []string
		for _, l := range locs {
			for _, fid := range locFuncs[l] {
				stack = append(stack, name(fid))
			}
		}
		samples = append(samples, sample{stack: stack, value: vals[len(vals)-1]})
	}
	return samples, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// eachField walks the fields of one protocol-buffer message. Varint fields
// pass their value with a nil slice; length-delimited fields pass their
// bytes (never nil, possibly empty). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			p := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, p); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
