// Command bench measures the simulator's hot paths and writes the numbers
// as JSON for tracking across revisions. It has six modes:
//
//	bench                  # simulator kernel: event loop, handoffs, full run
//	bench -apps            # application compute kernels (ns per force pair,
//	                       # butterfly, row relaxation, node expansion)
//	bench -runpath         # steady-state run path: ns/op, B/op, allocs/op,
//	                       # GC cycles for send→deliver→receive and traced runs
//	bench -figures         # end-to-end: cold vs disk-cached Figure 3 sweep
//	bench -analytic        # analytic engine: cold simulated Small Figure 3
//	                       # vs record-once-solve-many, with error stats
//	bench -topo            # wide-area graph scaling: events/sec and peak
//	                       # heap at 16/64/256 clusters, clique vs 2D torus
//
// Example:
//
//	bench -o BENCH_kernel.json -repeat 5
//	bench -apps -o results/BENCH_apps.json
//	bench -runpath -o results/BENCH_runpath.json
//	bench -runpath -only lan_send_recv,fft_small_das
//	bench -figures -o results/BENCH_figures.json -prev 53.9
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"twolayer/internal/apps"
	"twolayer/internal/apps/asp"
	"twolayer/internal/apps/awari"
	"twolayer/internal/apps/barneshut"
	"twolayer/internal/apps/fft"
	"twolayer/internal/apps/tsp"
	"twolayer/internal/apps/water"
	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// Measurement is one benchmark's result. Events is per run; the rates are
// the median over -repeat runs, so a scheduling hiccup on a shared machine
// does not pollute the record.
type Measurement struct {
	Name         string  `json:"name"`
	Events       uint64  `json:"events_per_run"`
	Runs         int     `json:"runs"`
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// measure runs fn (which must return the number of simulator events it
// fired) repeat times and keeps the median rate.
func measure(name string, repeat int, fn func() (uint64, error)) (Measurement, error) {
	type sample struct {
		events  uint64
		elapsed time.Duration
	}
	samples := make([]sample, 0, repeat)
	for i := 0; i < repeat; i++ {
		start := time.Now()
		events, err := fn()
		if err != nil {
			return Measurement{}, fmt.Errorf("%s: %w", name, err)
		}
		samples = append(samples, sample{events, time.Since(start)})
	}
	sort.Slice(samples, func(i, j int) bool {
		return float64(samples[i].elapsed)/float64(samples[i].events) <
			float64(samples[j].elapsed)/float64(samples[j].events)
	})
	med := samples[len(samples)/2]
	ns := float64(med.elapsed.Nanoseconds()) / float64(med.events)
	return Measurement{
		Name:         name,
		Events:       med.events,
		Runs:         repeat,
		NsPerEvent:   ns,
		EventsPerSec: 1e9 / ns,
	}, nil
}

// kernelChain exercises the bare event loop: one self-rescheduling event,
// no processes.
func kernelChain(n int) (uint64, error) {
	k := sim.NewKernel()
	remaining := n
	var step func()
	step = func() {
		if remaining == 0 {
			return
		}
		remaining--
		k.After(sim.Microsecond, step)
	}
	k.After(0, step)
	if err := k.Run(); err != nil {
		return 0, err
	}
	return k.EventsFired(), nil
}

// handoffChain bounces a wake between two blocked processes, the pattern
// underneath every simulated message delivery.
func handoffChain(n int) (uint64, error) {
	k := sim.NewKernel()
	var ping, pong sim.Cond
	k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			k.After(0, func() { pong.Signal() })
			ping.Wait(p, "ping")
		}
	})
	k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pong.Wait(p, "pong")
			k.After(0, func() { ping.Signal() })
		}
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	return k.EventsFired(), nil
}

// fftRun is the end-to-end workload: the all-to-all-heavy FFT at Small
// scale on the DAS shape, the configuration BenchmarkSimulatorThroughput
// uses as the regression gate.
func fftRun() (uint64, error) {
	app, err := core.AppByName("FFT")
	if err != nil {
		return 0, err
	}
	res, err := core.Experiment{
		App: app, Scale: apps.Small, Optimized: false,
		Topo: topology.DAS(), Params: network.DefaultParams(),
	}.Run()
	if err != nil {
		return 0, err
	}
	return res.Events, nil
}

// count adapts an application kernel hook (iters in, operation count out)
// to measure's signature.
func count(iters int, fn func(int) int64) func() (uint64, error) {
	return func() (uint64, error) { return uint64(fn(iters)), nil }
}

type bench struct {
	name string
	fn   func() (uint64, error)
}

// filterBenches restricts a suite to the comma-separated names in only.
// Unknown names are an error listing the suite's valid choices — the same
// fail-fast contract cmd/micro applies to application names — so a typo in
// a CI job fails the job instead of silently benchmarking nothing.
func filterBenches[B any](benches []B, nameOf func(B) string, only string) ([]B, error) {
	if only == "" {
		return benches, nil
	}
	byName := make(map[string]B, len(benches))
	valid := make([]string, 0, len(benches))
	for _, bm := range benches {
		byName[nameOf(bm)] = bm
		valid = append(valid, nameOf(bm))
	}
	var picked []B
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		bm, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q; valid names: %s", name, strings.Join(valid, ", "))
		}
		picked = append(picked, bm)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("-only %q selects no benchmarks", only)
	}
	return picked, nil
}

// kernelBenches are the simulator hot paths (the default mode).
func kernelBenches(chain int) []bench {
	return []bench{
		{"kernel_schedule_fire", func() (uint64, error) { return kernelChain(chain) }},
		{"process_handoff", func() (uint64, error) { return handoffChain(chain / 2) }},
		{"fft_small_das", fftRun},
	}
}

// appBenches are the six Paper-scale application compute kernels. The
// iteration counts are sized so each run takes tens of milliseconds,
// enough that the median over -repeat runs is stable.
func appBenches() []bench {
	return []bench{
		{"water_force_pair", count(100, water.BenchForcePairs)},
		{"fft_butterfly", count(50, fft.BenchButterflies)},
		{"asp_row_relaxation", count(1, asp.BenchRowRelaxations)},
		{"barneshut_interaction", count(100, barneshut.BenchTreeForce)},
		{"tsp_node_expansion", count(1, tsp.BenchNodeExpansions)},
		{"awari_state_expansion", count(100, awari.BenchStateExpansions)},
	}
}

// cacheCounters is the JSON rendering of one phase's cache statistics.
type cacheCounters struct {
	MemoryHits uint64 `json:"memory_hits"`
	DiskHits   uint64 `json:"disk_hits"`
	Simulated  uint64 `json:"simulated"`
	Stale      uint64 `json:"stale"`
}

func counters(s core.CacheStats) cacheCounters {
	return cacheCounters{MemoryHits: s.Hits, DiskHits: s.DiskHits, Simulated: s.Misses, Stale: s.Stale}
}

// figuresReport records the cold/warm Figure 3 regeneration experiment:
// the headline numbers the persistent run cache exists for.
type figuresReport struct {
	Benchmark       string        `json:"benchmark"`
	Scale           string        `json:"scale"`
	PrevColdSeconds float64       `json:"prev_cold_seconds"`
	ColdSeconds     float64       `json:"cold_seconds"`
	WarmSeconds     float64       `json:"warm_seconds"`
	SpeedupVsPrev   float64       `json:"cold_speedup_vs_prev"`
	WarmSpeedup     float64       `json:"warm_speedup_vs_cold"`
	Cold            cacheCounters `json:"cold"`
	Warm            cacheCounters `json:"warm"`
}

// benchFigures times a cold paper-scale Figure 3 sweep into an empty
// persistent cache directory, then drops the in-memory layer and reruns:
// the warm pass must replay entirely from disk, with zero simulations.
func benchFigures(prev float64) (figuresReport, error) {
	dir, err := os.MkdirTemp("", "twolayer-figbench-")
	if err != nil {
		return figuresReport{}, err
	}
	defer os.RemoveAll(dir)
	cache := core.NewRunCache()
	if err := cache.SetDir(dir); err != nil {
		return figuresReport{}, err
	}
	opts := core.Figure3Options{Cache: cache}

	fmt.Fprintln(os.Stderr, "bench: cold paper-scale Figure 3 sweep (empty cache)...")
	start := time.Now()
	if _, err := core.Figure3(apps.Paper, opts); err != nil {
		return figuresReport{}, err
	}
	cold := time.Since(start)
	coldStats := cache.CacheStats()

	cache.Reset() // drop memory, keep the disk layer: a new process's view
	fmt.Fprintln(os.Stderr, "bench: warm rerun (disk cache only)...")
	start = time.Now()
	if _, err := core.Figure3(apps.Paper, opts); err != nil {
		return figuresReport{}, err
	}
	warm := time.Since(start)
	warmStats := cache.CacheStats()
	if warmStats.Misses != 0 {
		return figuresReport{}, fmt.Errorf("warm rerun simulated %d runs; want 0 (disk cache not effective)", warmStats.Misses)
	}

	return figuresReport{
		Benchmark:       "figure3_cold_vs_disk_cached",
		Scale:           "paper",
		PrevColdSeconds: prev,
		ColdSeconds:     cold.Seconds(),
		WarmSeconds:     warm.Seconds(),
		SpeedupVsPrev:   prev / cold.Seconds(),
		WarmSpeedup:     cold.Seconds() / warm.Seconds(),
		Cold:            counters(coldStats),
		Warm:            counters(warmStats),
	}, nil
}

func writeOut(out string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return nil
	}
	// Atomic replace: an interrupted bench run never leaves a truncated
	// JSON report where a previous good one stood.
	return cliutil.WriteFileAtomic(out, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func main() {
	var (
		out         = flag.String("o", "", "output JSON file (\"-\" for stdout; default depends on mode)")
		repeat      = flag.Int("repeat", 5, "runs per benchmark; the median is kept")
		chain       = flag.Int("n", 2_000_000, "chain length for the kernel and handoff microbenchmarks")
		cycles      = flag.Int("cycles", 200_000, "send+recv cycles per -runpath ping-pong run")
		only        = flag.String("only", "", "comma-separated benchmark names to run (kernel, -apps and -runpath modes)")
		appsMode    = flag.Bool("apps", false, "benchmark the application compute kernels instead")
		runpathMode = flag.Bool("runpath", false, "benchmark the steady-state run path (ns/op, B/op, allocs/op, GC cycles) instead")
		figMode     = flag.Bool("figures", false, "benchmark cold vs disk-cached Figure 3 regeneration instead")
		anMode      = flag.Bool("analytic", false, "benchmark the analytic engine (Small Figure 3: simulated vs record-once-solve-many) instead")
		topoMode    = flag.Bool("topo", false, "benchmark wide-area graph scaling (16/64/256 clusters, clique vs torus) instead")
		prev        = flag.Float64("prev", 53.9, "previous revision's cold Figure 3 seconds (-figures baseline)")
	)
	flag.Parse()
	if *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -repeat must be at least 1")
		os.Exit(2)
	}
	if *chain < 1 {
		fmt.Fprintln(os.Stderr, "bench: -n must be at least 1")
		os.Exit(2)
	}
	if *cycles < 1 {
		fmt.Fprintln(os.Stderr, "bench: -cycles must be at least 1")
		os.Exit(2)
	}
	if *prev <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -prev must be positive")
		os.Exit(2)
	}
	modes := 0
	for _, on := range []bool{*appsMode, *runpathMode, *figMode, *anMode, *topoMode} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "bench: -apps, -runpath, -figures, -analytic and -topo are mutually exclusive")
		os.Exit(2)
	}
	if (*figMode || *anMode || *topoMode) && *only != "" {
		fmt.Fprintln(os.Stderr, "bench: -only does not apply to -figures, -analytic or -topo")
		os.Exit(2)
	}

	if *topoMode {
		if *out == "" {
			*out = "results/BENCH_topo.json"
		}
		rep, err := benchTopo(*repeat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for _, p := range rep.Points {
			fmt.Fprintf(os.Stderr, "%4d clusters  %-12s %8d events  %12.0f events/sec  %7.1f MB peak\n",
				p.Clusters, p.Topology, p.Events, p.EventsPerSec, p.PeakHeapMB)
		}
		if err := writeOut(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	if *anMode {
		if *out == "" {
			*out = "BENCH_analytic.json"
		}
		rep, err := benchAnalytic(*repeat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "simulated %.1fs  analytic %.2fs  speedup %.0fx  err max %.2f%% mean %.2f%%\n",
			rep.SimulatedSeconds, rep.AnalyticSeconds, rep.Speedup,
			rep.MaxRelErrPct, rep.MeanRelErrPct)
		if err := writeOut(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	if *figMode {
		if *out == "" {
			*out = "BENCH_figures.json"
		}
		rep, err := benchFigures(*prev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cold %.1fs (%.2fx vs previous %.1fs)  warm %.2fs (%.0fx, %d disk hits, 0 simulated)\n",
			rep.ColdSeconds, rep.SpeedupVsPrev, rep.PrevColdSeconds,
			rep.WarmSeconds, rep.WarmSpeedup, rep.Warm.DiskHits)
		if err := writeOut(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	if *runpathMode {
		if *out == "" {
			*out = "BENCH_runpath.json"
		}
		benches, err := filterBenches(runpathBenches(), func(b runpathBench) string { return b.name }, *only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		report := struct {
			Unit    string               `json:"unit"`
			Results []RunpathMeasurement `json:"results"`
		}{Unit: "median over runs after one warm-up; scaled benchmarks report marginal cost (run at n vs 2n cycles), full FFT runs report whole-run cost; ops are events for process_handoff and the FFT runs, send+recv cycles for the ping-pongs"}
		for _, bm := range benches {
			m, err := measureRunpath(bm, *repeat, *cycles)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%-24s %10d ops  %9.2f ns/op  %8.2f B/op  %7.4f allocs/op  %3d GC\n",
				m.Name, m.Ops, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.GCCycles)
			report.Results = append(report.Results, m)
		}
		if err := writeOut(*out, report); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	benches := kernelBenches(*chain)
	unit := "median over runs; events are simulator events"
	if *appsMode {
		benches = appBenches()
		unit = "median over runs; events are application kernel operations (force pairs, butterflies, row relaxations, node expansions)"
		if *out == "" {
			*out = "BENCH_apps.json"
		}
	} else if *out == "" {
		*out = "BENCH_kernel.json"
	}
	benches, err := filterBenches(benches, func(b bench) string { return b.name }, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	report := struct {
		Unit    string        `json:"unit"`
		Results []Measurement `json:"results"`
	}{Unit: unit}
	for _, bm := range benches {
		m, err := measure(bm.name, *repeat, bm.fn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%-22s %10d events  %8.2f ns/event  %12.0f events/sec\n",
			m.Name, m.Events, m.NsPerEvent, m.EventsPerSec)
		report.Results = append(report.Results, m)
	}
	if err := writeOut(*out, report); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
