package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"twolayer/internal/analytic"
	"twolayer/internal/apps"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// analyticVariant is one variant's recording and solve cost plus its
// analytic-vs-simulated error over the full Small grid.
type analyticVariant struct {
	App            string  `json:"app"`
	Optimized      bool    `json:"optimized"`
	Nodes          int     `json:"graph_nodes"`
	Messages       int     `json:"graph_messages"`
	RecordSeconds  float64 `json:"record_seconds"`
	FrozenNsPoint  float64 `json:"frozen_solve_ns_per_point"`
	MatchedNsPoint float64 `json:"matched_solve_ns_per_point"`
	// BatchNsPoint and MatchedBatchNsPoint are the same grids answered by
	// the batched multi-point passes (checked bit-identical inline), and
	// BatchSpeedup is the per-variant frozen scalar/batched ratio.
	BatchNsPoint        float64 `json:"batch_solve_ns_per_point"`
	MatchedBatchNsPoint float64 `json:"matched_batch_solve_ns_per_point"`
	BatchSpeedup        float64 `json:"batch_speedup"`
	MaxRelErrPct        float64 `json:"max_rel_error_pct"`
	MeanRelErrPct       float64 `json:"mean_rel_error_pct"`
}

// analyticBenchReport records the simulate-once-answer-many experiment: one
// cold simulated Small Figure 3 sweep against one cold analytic sweep
// (recordings included), plus per-variant recording cost, per-grid-point
// solve cost and prediction error.
type analyticBenchReport struct {
	Benchmark        string  `json:"benchmark"`
	Scale            string  `json:"scale"`
	GridPoints       int     `json:"grid_points_per_variant"`
	SimulatedSeconds float64 `json:"simulated_cold_seconds"`
	AnalyticSeconds  float64 `json:"analytic_cold_seconds"`
	Speedup          float64 `json:"analytic_speedup"`
	// BatchSpeedup is the headline batched-vs-scalar ratio: total frozen
	// point-at-a-time solve time over total SolveBatch time for the Small
	// grid, summed across variants.
	BatchSpeedup  float64           `json:"batch_speedup"`
	MaxRelErrPct  float64           `json:"max_rel_error_pct"`
	MeanRelErrPct float64           `json:"mean_rel_error_pct"`
	Variants      []analyticVariant `json:"variants"`
}

// panelErrors compares one variant's analytic panel against the simulated
// one, cell by cell, as relative error of the predicted runtime (identical
// to the relative error of the speedup percentages the panels carry).
func panelErrors(an, sim core.Figure3Panel) (maxPct, meanPct float64) {
	n := 0
	for i := range sim.Rel {
		for j := range sim.Rel[i] {
			if sim.FailedAt(i, j) != "" || an.FailedAt(i, j) != "" || sim.Rel[i][j] <= 0 {
				continue
			}
			d := (an.Rel[i][j] - sim.Rel[i][j]) / sim.Rel[i][j]
			if d < 0 {
				d = -d
			}
			if p := 100 * d; p > maxPct {
				maxPct = p
			}
			meanPct += 100 * d
			n++
		}
	}
	if n > 0 {
		meanPct /= float64(n)
	}
	return maxPct, meanPct
}

// benchAnalytic times the analytic engine end to end at Small scale: a cold
// simulated Figure 3 sweep, a cold analytic sweep (recordings included),
// then per-variant recording and solve microbenchmarks.
func benchAnalytic(repeat int) (analyticBenchReport, error) {
	grid := make([]network.Params, 0, len(core.Latencies)*len(core.Bandwidths))
	for _, lat := range core.Latencies {
		for _, bw := range core.Bandwidths {
			grid = append(grid, network.DefaultParams().WithWAN(lat, bw))
		}
	}
	rep := analyticBenchReport{
		Benchmark:  "figure3_analytic_vs_simulated",
		Scale:      "small",
		GridPoints: len(grid),
	}

	fmt.Fprintln(os.Stderr, "bench: cold simulated Small Figure 3 sweep...")
	start := time.Now()
	simPanels, err := core.Figure3(apps.Small, core.Figure3Options{Cache: core.NewRunCache()})
	if err != nil {
		return rep, err
	}
	rep.SimulatedSeconds = time.Since(start).Seconds()

	fmt.Fprintln(os.Stderr, "bench: cold analytic Small Figure 3 sweep (recordings included)...")
	start = time.Now()
	anPanels, err := core.SolveFigure3(core.Analytic{}, apps.Small, core.Figure3Options{Cache: core.NewRunCache()})
	if err != nil {
		return rep, err
	}
	rep.AnalyticSeconds = time.Since(start).Seconds()
	rep.Speedup = rep.SimulatedSeconds / rep.AnalyticSeconds

	simByKey := make(map[string]core.Figure3Panel, len(simPanels))
	for _, p := range simPanels {
		simByKey[fmt.Sprintf("%s/%v", p.App, p.Optimized)] = p
	}

	var errSum float64
	errCells := 0
	for _, an := range anPanels {
		simPanel, ok := simByKey[fmt.Sprintf("%s/%v", an.App, an.Optimized)]
		if !ok {
			return rep, fmt.Errorf("analytic panel %s (optimized=%v) has no simulated counterpart", an.App, an.Optimized)
		}
		v := analyticVariant{App: an.App, Optimized: an.Optimized}
		v.MaxRelErrPct, v.MeanRelErrPct = panelErrors(an, simPanel)
		if v.MaxRelErrPct > rep.MaxRelErrPct {
			rep.MaxRelErrPct = v.MaxRelErrPct
		}
		errSum += v.MeanRelErrPct
		errCells++

		app, err := core.AppByName(an.App)
		if err != nil {
			return rep, err
		}
		x := core.Experiment{
			App: app, Scale: apps.Small, Optimized: an.Optimized,
			Topo: topology.DAS(), Params: core.ReferenceParams(),
		}
		label := fmt.Sprintf("%s (optimized=%v) bench recording", an.App, an.Optimized)
		start = time.Now()
		g, fail, err := core.NewRunCache().RecordedGraph(label, x, nil)
		if err != nil {
			return rep, err
		}
		if fail != nil {
			return rep, fmt.Errorf("%s: recording failed: %s", label, fail)
		}
		v.RecordSeconds = time.Since(start).Seconds()
		v.Nodes, v.Messages = g.Nodes(), g.Messages()

		// Every solve path gets one untimed warm pass (the scalar prefix
		// snapshot, the matched streams and the batch state arrays all
		// build lazily on first use), then `repeat` timed passes each,
		// interleaved round-robin so every path samples the same stretch
		// of wall clock, of which the fastest pass counts. Minimum of
		// interleaved passes is the standard estimator for a shared,
		// noisy machine: scheduling hiccups only ever add time, and
		// interleaving keeps a slow minute from landing entirely on one
		// side of a ratio.
		ev := analytic.NewEval(g)
		var batch, matchedBatch []sim.Time
		passes := []struct {
			ns   *float64
			pass func()
		}{
			{&v.FrozenNsPoint, func() {
				for _, p := range grid {
					ev.Solve(p)
				}
			}},
			{&v.BatchNsPoint, func() { batch = ev.SolveBatch(grid) }},
			{&v.MatchedNsPoint, func() {
				for _, p := range grid {
					ev.SolveMatched(p)
				}
			}},
			{&v.MatchedBatchNsPoint, func() { matchedBatch = ev.SolveMatchedBatch(grid, 0) }},
		}
		for _, pp := range passes {
			pp.pass() // warm
			*pp.ns = math.Inf(1)
		}
		for r := 0; r < repeat; r++ {
			for _, pp := range passes {
				// Collect between passes so a GC pause triggered by one
				// path's garbage is not charged to whichever pass happens
				// to run next.
				runtime.GC()
				start := time.Now()
				pp.pass()
				if ns := float64(time.Since(start).Nanoseconds()) / float64(len(grid)); ns < *pp.ns {
					*pp.ns = ns
				}
			}
		}
		v.BatchSpeedup = v.FrozenNsPoint / v.BatchNsPoint
		for i, p := range grid {
			if want := ev.Solve(p); batch[i] != want {
				return rep, fmt.Errorf("%s: SolveBatch diverged at point %d: %d, scalar %d", label, i, batch[i], want)
			}
			if want := ev.SolveMatched(p); matchedBatch[i] != want {
				return rep, fmt.Errorf("%s: SolveMatchedBatch diverged at point %d: %d, scalar %d", label, i, matchedBatch[i], want)
			}
		}

		fmt.Fprintf(os.Stderr, "%-22s record %6.3fs  frozen %9.0f ns/pt  batch %9.0f ns/pt (%4.1fx)  matched %9.0f ns/pt  err max %6.2f%% mean %5.2f%%\n",
			fmt.Sprintf("%s (%s)", v.App, map[bool]string{false: "unopt", true: "opt"}[v.Optimized]),
			v.RecordSeconds, v.FrozenNsPoint, v.BatchNsPoint, v.BatchSpeedup, v.MatchedNsPoint, v.MaxRelErrPct, v.MeanRelErrPct)
		rep.Variants = append(rep.Variants, v)
	}
	if errCells > 0 {
		rep.MeanRelErrPct = errSum / float64(errCells)
	}
	var scalarNs, batchNs float64
	for _, v := range rep.Variants {
		scalarNs += v.FrozenNsPoint
		batchNs += v.BatchNsPoint
	}
	if batchNs > 0 {
		rep.BatchSpeedup = scalarNs / batchNs
	}
	return rep, nil
}
