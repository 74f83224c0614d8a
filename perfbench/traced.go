package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"twolayer/internal/analytic"
	"twolayer/internal/apps"
	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
)

// The traced pass splits a workload's time across the repository's layers.
// It is separate from the timed runs and none of its numbers feed the
// end-to-end metrics:
//
//  1. one untraced regeneration with the CLI, as in a timed run;
//  2. the same regeneration in process, through the same study driver,
//     under a CPU profile bucketed flat by layer (profile.go), with the Go
//     runtime's allocation and GC counters read around it; its bytes must
//     equal the CLI's;
//  3. the study's cells one at a time through the public calls —
//     Experiment.Run sequentially and at the shipped in-run worker count,
//     RunCache.RunCached and RunCache.RecordedGraph against the warm cache
//     directory, and for the heatmap the analytic record and solve calls —
//     each call a span, each result checked against the artifact's row.
//
// Spans are kept in memory and written to <work>/spans/ at the end.

// span is one timed call: Start and End are nanoseconds since the pass
// began; Parent is the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(parent int, name, cell string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// counts accumulates the exact per-cell counters of the sequential pass.
type counts struct {
	cells, failed                int
	events                       uint64
	virtual, wanBusy             sim.Time
	wanMsgs, wanBytes            int64
	intraMsgs, intraBytes        int64
	retx, timeouts, acks         int64
	dropped, outageDropped, dups int64
}

func (c *counts) add(r par.Result) {
	c.events += r.Events
	c.virtual += r.Elapsed
	c.wanMsgs += r.WAN.Messages
	c.wanBytes += r.WAN.Bytes
	c.wanBusy += r.WAN.BusyTime
	c.intraMsgs += r.Intra.Messages
	c.intraBytes += r.Intra.Bytes
	c.retx += r.Transport.Retransmits
	c.timeouts += r.Transport.Timeouts
	c.acks += r.Transport.Acks
	c.dropped += r.Faults.Dropped
	c.outageDropped += r.Faults.OutageDropped
	c.dups += r.Faults.Duplicated
}

// study is what the traced pass needs to know about one workload's study.
type study struct {
	// inProcess regenerates the artifact through the study driver with a
	// run cache on dir and returns its bytes and the cache.
	inProcess func(dir string) ([]byte, *core.RunCache, error)
	// base and grid are the simulations the artifact rests on: the
	// single-cluster baselines and the study's own cells.
	base, grid []cell
	// check compares the sequential pass's results (nil for a cell that
	// failed) with the CLI's artifact.
	check func(base, grid []*par.Result, out []byte) error
	// analytic marks the heatmap, whose grid cells are the per-variant
	// reference recordings: the run cache keeps their graphs, not their
	// results.
	analytic bool
}

func (b *bench) study(w *workload) (*study, error) {
	wan4, err := cliutil.ParseWANTopology(*b.defaults.wanSpec, 4)
	if err != nil {
		return nil, err
	}
	cache := func(dir string) (*core.RunCache, error) {
		c := core.NewRunCache()
		return c, c.SetDir(filepath.Join(dir, "results", "cache"))
	}
	switch w.name {
	case "fig3-paper-cold":
		grid := fig3Cells(wan4)
		base := baselineCells(apps.Paper)
		return &study{
			inProcess: func(dir string) ([]byte, *core.RunCache, error) {
				c, err := cache(dir)
				if err != nil {
					return nil, nil, err
				}
				panels, err := core.Figure3(apps.Paper, core.Figure3Options{WAN: wan4, Cache: c})
				if err != nil {
					return nil, nil, err
				}
				var buf bytes.Buffer
				buf.WriteString("Figure 3: Speedup relative to an all-Myrinet cluster (percent)\n")
				for _, p := range panels {
					writeFigure3CSV(&buf, p)
				}
				return buf.Bytes(), c, nil
			},
			base:  base,
			grid:  grid,
			check: func(base, grid []*par.Result, out []byte) error { return checkSpeedups(base, grid, csvRows(out)) },
		}, nil
	case "chaos-small-cold":
		grid := chaosCells(wan4, b.seed)
		base := baselineCells(apps.Small)
		return &study{
			inProcess: func(dir string) ([]byte, *core.RunCache, error) {
				c, err := cache(dir)
				if err != nil {
					return nil, nil, err
				}
				sup := *b.defaults.sup
				sup.JournalPath = filepath.Join(dir, "results", "chaos.journal")
				pol, cleanup, err := sup.Policy()
				if err != nil {
					return nil, nil, err
				}
				defer cleanup()
				points, err := core.ChaosStudy(core.ChaosConfig{
					Scale: apps.Small, Topo: chaosTopo(), Params: chaosParams, WAN: wan4,
					Drops: core.DefaultChaosDrops, Outages: core.DefaultChaosOutages,
					OutagePeriod: sim.Second, Seed: b.seed, Cache: c, Policy: pol,
				})
				if err != nil {
					return nil, nil, err
				}
				var buf bytes.Buffer
				core.WriteChaosCSV(&buf, points)
				return buf.Bytes(), c, nil
			},
			base:  base,
			grid:  grid,
			check: func(_, grid []*par.Result, out []byte) error { return checkChaos(grid, csvRows(out)) },
		}, nil
	case "heatmap-small-warm":
		base := baselineCells(apps.Small)
		return &study{
			inProcess: func(dir string) ([]byte, *core.RunCache, error) {
				c, err := cache(dir)
				if err != nil {
					return nil, nil, err
				}
				panels, _, err := core.Heatmap(apps.Small, core.HeatmapOptions{
					Size: core.DefaultHeatmapSize, Cache: c, Analytic: b.defaults.analytic.Options(),
				})
				if err != nil {
					return nil, nil, err
				}
				var buf bytes.Buffer
				core.WriteHeatmapCSV(&buf, panels)
				return buf.Bytes(), c, nil
			},
			base:     base,
			grid:     referenceCells(),
			analytic: true,
			check:    func(_, _ []*par.Result, _ []byte) error { return nil }, // the solve pass checks the lattice
		}, nil
	}
	return nil, fmt.Errorf("no study for workload %s", w.name)
}

// writeFigure3CSV renders one panel as `figures -fig3 -csv` does.
func writeFigure3CSV(buf *bytes.Buffer, p core.Figure3Panel) {
	t := stats.NewTable("app", "variant", "latency_ms", "bandwidth_MBs", "relative_speedup_pct")
	for i, lat := range p.Latencies {
		for j, bw := range p.Bandwidths {
			value := fmt.Sprintf("%.2f", p.Rel[i][j])
			if k := p.FailedAt(i, j); k != "" {
				value = core.FailedCell(k)
			}
			t.AddRow(p.App, variantName(p.Optimized), fmt.Sprintf("%.4g", lat.Milliseconds()),
				fmt.Sprintf("%.4g", bw/1e6), value)
		}
	}
	t.CSV(buf)
}

// checkSpeedups checks each grid cell's relative speedup against its CSV
// row; panel v's cells divide by the baseline of its application.
func checkSpeedups(base, grid []*par.Result, rows [][]string) error {
	if len(rows) != len(grid) {
		return fmt.Errorf("%w: %d cells, artifact has %d rows", errMismatch, len(grid), len(rows))
	}
	for k, r := range grid {
		row := rows[k]
		if r == nil {
			if !isFailed(row[len(row)-1]) {
				return fmt.Errorf("%w: cell %d failed, artifact row %v did not", errMismatch, k, row)
			}
			continue
		}
		app, err := core.AppByName(row[0])
		if err != nil {
			return err
		}
		tl := baselineOf(base, app.Name)
		if got := fmt.Sprintf("%.2f", core.RelativeSpeedup(tl, r.Elapsed)); got != row[len(row)-1] {
			return fmt.Errorf("%w: cell %d gives %s, artifact row %v", errMismatch, k, got, row)
		}
	}
	return nil
}

// baselineOf returns the single-cluster runtime of the named application
// from the baseline results, which are in core.Apps order.
func baselineOf(base []*par.Result, app string) sim.Time {
	for i, a := range core.Apps() {
		if a.Name == app && base[i] != nil {
			return base[i].Elapsed
		}
	}
	return 0
}

// shareMetric names the per-layer metric of a profile bucket: go.gc becomes
// go.gc_self_frac, apps.asp becomes apps.asp.self_frac.
func shareMetric(layer string) string {
	if strings.HasPrefix(layer, "go.") {
		return layer + "_self_frac"
	}
	return layer + ".self_frac"
}

// checkChaos checks each chaos cell's status, runtime and retransmissions
// against its CSV row.
func checkChaos(grid []*par.Result, rows [][]string) error {
	if len(rows) != len(grid) {
		return fmt.Errorf("%w: %d cells, artifact has %d rows", errMismatch, len(grid), len(rows))
	}
	for k, r := range grid {
		row := rows[k]
		if r == nil {
			if !isFailed(row[4]) {
				return fmt.Errorf("%w: cell %d failed, artifact row %v did not", errMismatch, k, row)
			}
			continue
		}
		got := fmt.Sprintf("%.3f/%d", float64(r.Elapsed)/float64(sim.Millisecond), r.Transport.Retransmits)
		if want := row[5] + "/" + row[8]; row[4] != "ok" || got != want {
			return fmt.Errorf("%w: cell %d gives %s, artifact row %v", errMismatch, k, got, row)
		}
	}
	return nil
}

// gcCounters reads the runtime's cumulative allocation and GC-cycle counts.
func gcCounters() (allocBytes, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func (b *bench) traced(w *workload) (result, map[string]any, error) {
	st, err := b.study(w)
	if err != nil {
		return result{}, nil, err
	}
	tr := &tracer{t0: time.Now()}
	m := map[string]float64{}
	res := result{correct: true, attempted: 2}
	info := map[string]any{}
	// mismatch turns a failed check into an incorrect result; any other
	// error aborts the run.
	mismatch := func(err error) (result, map[string]any, error) {
		switch {
		case errors.Is(err, errUnexpectedExit):
			res.failed++
		case errors.Is(err, errMismatch):
			res.correct = false
		default:
			return result{}, nil, err
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return res, info, nil
	}

	// 1. Untraced CLI regeneration.
	dir, _, err := b.setup(w)
	if err != nil {
		return result{}, nil, err
	}
	sp := tr.begin(0, "cli."+w.tool, w.name)
	p, out, err := b.regen(w, dir, b.seed)
	untraced := tr.end(sp)
	if err != nil {
		return mismatch(err)
	}

	// 2. In-process regeneration under the CPU profile.
	inDir := dir
	if !w.warm {
		if inDir, err = b.freshDir(); err != nil {
			return result{}, nil, err
		}
	}
	var prof bytes.Buffer
	runtime.GC()
	alloc0, gc0 := gcCounters()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, nil, err
	}
	sp = tr.begin(0, "inprocess."+w.name, w.name)
	got, inCache, err := st.inProcess(inDir)
	profiled := tr.end(sp)
	pprof.StopCPUProfile()
	alloc1, gc1 := gcCounters()
	if err != nil {
		return result{}, nil, err
	}
	if !bytes.Equal(got, out) {
		return mismatch(fmt.Errorf("%w: the in-process %s differs from the CLI's", errMismatch, w.name))
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, nil, err
	}
	shares := layerShares(samples)
	for l, v := range shares {
		m[shareMetric(l)] = v
	}
	cs := inCache.CacheStats()
	m["core.cache_disk_hits"] = float64(cs.DiskHits)
	m["core.cache_simulated"] = float64(cs.Misses)
	m["core.graph_disk_hits"] = float64(cs.GraphDiskHits)
	m["go.alloc_mb"] = float64(alloc1-alloc0) / 1e6
	m["go.gc_cycles"] = float64(gc1 - gc0)
	m["trace.overhead_ratio"] = profiled.Seconds() / untraced.Seconds()
	info["profile_samples"] = len(samples)
	info["profile_top_leaves"] = topLeaves(samples, 25)
	info["cli_wall_s"] = p.wall.Seconds()

	// 3. The cells one at a time: sequential, then at the shipped default.
	cells := append(slices.Clone(st.base), st.grid...)
	var c counts
	results := make([]*par.Result, len(cells))
	seqNs := make([]time.Duration, len(cells))
	root := tr.begin(0, "cells.sequential", "")
	for i, cl := range cells {
		x := cl.x
		x.Workers = -1
		sp := tr.begin(root, "Experiment.Run", cl.label)
		r, err := x.Run()
		seqNs[i] = tr.end(sp)
		c.cells++
		if err != nil {
			c.failed++
			continue
		}
		results[i] = &r
		c.add(r)
	}
	tr.end(root)
	// The default-engine pass covers every stride-th cell: on the paper-scale
	// grid a full second pass would push the traced run past its time
	// budget. The ratio compares the same cells on both engines.
	var seqTotal, seqSampled, defTotal time.Duration
	for _, d := range seqNs {
		seqTotal += d
	}
	stride := (len(cells) + defaultPassCells - 1) / defaultPassCells
	root = tr.begin(0, "cells.default_workers", "")
	for i := 0; i < len(cells); i += stride {
		cl := cells[i]
		sp := tr.begin(root, "Experiment.Run", cl.label)
		r, err := cl.x.Run()
		defTotal += tr.end(sp)
		seqSampled += seqNs[i]
		if (err != nil) != (results[i] == nil) || (err == nil && r.Elapsed != results[i].Elapsed) {
			return mismatch(fmt.Errorf("%w: %s differs between the sequential and the default engine", errMismatch, cl.label))
		}
	}
	tr.end(root)
	info["default_pass_stride"] = stride
	baseRes, gridRes := results[:len(st.base)], results[len(st.base):]
	if err := st.check(baseRes, gridRes, out); err != nil {
		return mismatch(err)
	}

	// Loads of every completed run the regeneration stored, from the cache
	// directory the in-process regeneration left.
	var stored []cell
	for i, cl := range cells {
		if results[i] != nil && (i < len(st.base) || !st.analytic) {
			stored = append(stored, cl)
		}
	}
	loads := core.NewRunCache()
	if err := loads.SetDir(filepath.Join(inDir, "results", "cache")); err != nil {
		return result{}, nil, err
	}
	var loadTotal time.Duration
	root = tr.begin(0, "cells.cache_load", "")
	for _, cl := range stored {
		sp := tr.begin(root, "RunCache.RunCached", cl.label)
		_, err := cl.x.RunCached(loads)
		loadTotal += tr.end(sp)
		if err != nil {
			return result{}, nil, err
		}
	}
	tr.end(root)
	if s := loads.CacheStats(); s.Misses != 0 {
		return mismatch(fmt.Errorf("%w: %d of %d stored cells missed the warm cache", errMismatch, s.Misses, len(stored)))
	}

	m["core.cells"] = float64(c.cells)
	m["core.failed_cells"] = float64(c.failed)
	m["core.serial_cell_s"] = seqTotal.Seconds()
	m["core.pool_efficiency"] = seqTotal.Seconds() / (p.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	m["core.cache_load_us"] = float64(loadTotal.Microseconds()) / float64(len(stored))
	m["sim.events"] = float64(c.events)
	m["sim.ns_per_event"] = float64(seqTotal.Nanoseconds()) / float64(c.events)
	m["sim.windowed_cost_ratio"] = defTotal.Seconds() / seqSampled.Seconds()
	firstWAN := c.wanMsgs + c.outageDropped - c.dups - c.retx - c.acks
	m["par.messages"] = float64(c.intraMsgs - c.retx - c.acks)
	m["par.retransmits"] = float64(c.retx)
	m["par.timeouts"] = float64(c.timeouts)
	m["par.acks"] = float64(c.acks)
	m["par.useful_frame_frac"] = 1
	if firstWAN+c.retx > 0 {
		m["par.useful_frame_frac"] = float64(firstWAN) / float64(firstWAN+c.retx)
	}
	m["network.wan_messages"] = float64(c.wanMsgs)
	m["network.wan_mb"] = float64(c.wanBytes) / 1e6
	m["network.intra_messages"] = float64(c.intraMsgs)
	m["network.intra_mb"] = float64(c.intraBytes) / 1e6
	m["network.wan_busy_frac"] = float64(c.wanBusy) / float64(c.virtual)
	m["network.dropped"] = float64(c.dropped + c.outageDropped)
	m["apps.virtual_s"] = c.virtual.Seconds()

	a := analyticStats{}
	if st.analytic {
		if a, err = b.analyticPass(tr, inDir, st.grid, baseRes, out); err != nil {
			return mismatch(err)
		}
	}
	m["core.graph_load_ms"] = a.graphLoadMs
	m["analytic.graph_nodes"] = float64(a.nodes)
	m["analytic.graph_messages"] = float64(a.messages)
	m["analytic.record_ms"] = a.recordMs
	m["analytic.matched_variants"] = float64(a.matched)
	m["analytic.frozen_ns_per_point"] = a.frozenNsPerPoint
	m["analytic.matched_ns_per_point"] = a.matchedNsPerPoint
	m["analytic.ops_evaluated"] = float64(a.ops)
	m["trace.spans"] = float64(len(tr.spans))

	if err := b.writeSpans(w, tr, prof.Bytes()); err != nil {
		return result{}, nil, err
	}
	res.metrics = m
	return res, info, nil
}

// defaultPassCells caps the cells the default-engine pass reruns.
const defaultPassCells = 200

type analyticStats struct {
	nodes, messages, matched int
	ops                      int64
	graphLoadMs, recordMs    float64
	frozenNsPerPoint         float64
	matchedNsPerPoint        float64
}

// analyticPass times the heatmap's analytic calls variant by variant:
// loading each recorded graph from the warm cache, recording it afresh,
// choosing the engine as the study driver does, and solving the full
// lattice. Each variant's solved lattice must reproduce its artifact rows.
func (b *bench) analyticPass(tr *tracer, dir string, refs []cell, base []*par.Result, out []byte) (analyticStats, error) {
	var a analyticStats
	loads, records := core.NewRunCache(), core.NewRunCache()
	if err := loads.SetDir(filepath.Join(dir, "results", "cache")); err != nil {
		return a, err
	}
	n := core.DefaultHeatmapSize
	var pts []network.Params
	for _, lat := range core.HeatmapLatencies(n) {
		for _, bw := range core.HeatmapBandwidths(n) {
			pts = append(pts, network.DefaultParams().WithWAN(lat, bw))
		}
	}
	lo, hi := core.Latencies[0], core.Latencies[len(core.Latencies)-1]
	probes := []network.Params{
		network.DefaultParams().WithWAN(lo, core.Bandwidths[0]),
		network.DefaultParams().WithWAN(hi, core.Bandwidths[len(core.Bandwidths)-1]),
	}
	tol := b.defaults.analytic.Options().Tolerance
	if tol <= 0 {
		tol = core.DefaultAnalyticTolerance
	}
	workers := core.DefaultWorkers()
	if workers <= 0 {
		workers = sim.DefaultWorkers()
	}
	rows := csvRows(out)
	if len(rows) != len(refs)*len(pts) {
		return a, fmt.Errorf("%w: %d lattice cells, artifact has %d rows", errMismatch, len(refs)*len(pts), len(rows))
	}
	var loadTotal, recTotal, frozenTotal, matchedTotal time.Duration
	var frozenPts, matchedPts int
	root := tr.begin(0, "analytic", "")
	for v, cl := range refs {
		sp := tr.begin(root, "RunCache.RecordedGraph", cl.label+" (load)")
		g, fail, err := loads.RecordedGraph(cl.label, cl.x, nil)
		loadTotal += tr.end(sp)
		if err != nil || fail != nil {
			return a, fmt.Errorf("%s: graph load: %v %v", cl.label, err, fail)
		}
		sp = tr.begin(root, "RunCache.RecordedGraph", cl.label+" (record)")
		rg, fail, err := records.RecordedGraph(cl.label, cl.x, nil)
		recTotal += tr.end(sp)
		if err != nil || fail != nil {
			return a, fmt.Errorf("%s: recording: %v %v", cl.label, err, fail)
		}
		if rg.Nodes() != g.Nodes() || rg.Messages() != g.Messages() {
			return a, fmt.Errorf("%w: %s records %d nodes, the cache holds %d", errMismatch, cl.label, rg.Nodes(), g.Nodes())
		}
		a.nodes += g.Nodes()
		a.messages += g.Messages()

		sp = tr.begin(root, "analytic.NewEval", cl.label)
		probe := analytic.NewEval(g)
		tr.end(sp)
		sp = tr.begin(root, "Eval.FrozenAccurate", cl.label)
		frozen := probe.FrozenAccurate(probes, tol/3)
		tr.end(sp)
		ev := analytic.NewEval(g)
		var ts []sim.Time
		if frozen {
			sp = tr.begin(root, "Eval.SolveBatchParallel", cl.label)
			ts = ev.SolveBatchParallel(pts, workers)
			frozenTotal += tr.end(sp)
			frozenPts += len(pts)
		} else {
			a.matched++
			sp = tr.begin(root, "Eval.SolveMatchedBatch", cl.label)
			ts = ev.SolveMatchedBatch(pts, workers)
			matchedTotal += tr.end(sp)
			matchedPts += len(pts)
		}
		a.ops += probe.Stats().OpsEvaluated + ev.Stats().OpsEvaluated

		tl := baselineOf(base, cl.x.App.Name)
		for k, t := range ts {
			row := rows[v*len(pts)+k]
			if got := fmt.Sprintf("%.2f", core.RelativeSpeedup(tl, t)); got != row[len(row)-1] {
				return a, fmt.Errorf("%w: %s lattice point %d gives %s, artifact row %v", errMismatch, cl.label, k, got, row)
			}
		}
	}
	tr.end(root)
	a.graphLoadMs = float64(loadTotal.Microseconds()) / 1e3 / float64(len(refs))
	a.recordMs = float64(recTotal.Microseconds()) / 1e3
	if frozenPts > 0 {
		a.frozenNsPerPoint = float64(frozenTotal.Nanoseconds()) / float64(frozenPts)
	}
	if matchedPts > 0 {
		a.matchedNsPerPoint = float64(matchedTotal.Nanoseconds()) / float64(matchedPts)
	}
	return a, nil
}

// writeSpans dumps the pass's spans as JSON, and the CPU profile of the
// in-process regeneration for `go tool pprof`, under <work>/spans/.
func (b *bench) writeSpans(w *workload, tr *tracer, profile []byte) error {
	dir := filepath.Join(b.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, b.seed))
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", data, 0o644)
}
