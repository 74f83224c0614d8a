package core

import (
	"fmt"
	"io"

	"twolayer/internal/apps"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
	"twolayer/internal/wantopo"
)

// This file is the chaos sensitivity study: the paper asks how sensitive
// the applications are to slow wide-area links; here we additionally ask
// how sensitive they are to *unreliable* ones. Each application variant is
// re-run under deterministic wide-area fault injection (message loss and
// transient link outages, healed by the go-back-N transport) and measured
// against the paper's 60%-of-uniform acceptability criterion.

// ChaosCriterionPct is the paper's acceptability bar (Section 5.2): a
// multi-cluster run is "acceptable" while it retains at least 60% of the
// single-cluster speedup.
const ChaosCriterionPct = 60.0

// Default chaos sweep axes: loss rates spanning clean to badly degraded
// links, and outage durations within a one-second blackout period.
var (
	DefaultChaosDrops   = []float64{0, 0.001, 0.01, 0.05, 0.10}
	DefaultChaosOutages = []sim.Time{0, 100 * sim.Millisecond, 300 * sim.Millisecond}
)

// ChaosConfig parameterizes the study. Zero values select the defaults
// noted per field.
type ChaosConfig struct {
	// Scale is the problem size (default Tiny; cmd/chaos runs Paper).
	Scale apps.Scale
	// Topo is the machine shape (default the 4x8 DAS).
	Topo *topology.Topology
	// Params is the base interconnect (default network.DefaultParams()).
	Params network.Params
	// WAN is the wide-area graph (default the paper's clique). Faults keep
	// their per-cluster-pair identity: a drop decision is made at the source
	// gateway, whatever route the message would have taken.
	WAN *wantopo.WAN
	// Drops are the wide-area loss rates to sweep (default DefaultChaosDrops).
	Drops []float64
	// Outages are the transient-blackout durations to sweep, each applied
	// with period OutagePeriod (default DefaultChaosOutages).
	Outages []sim.Time
	// OutagePeriod is the blackout repetition period (default 1s).
	OutagePeriod sim.Time
	// Seed drives the fault plan (default DefaultSeed).
	Seed int64
	// Regime overlays a deterministic time-varying regime (see package
	// regime) on top of the fault grid; the zero value keeps the study — and
	// its CSV — byte-identical to a regime-free one.
	Regime regime.Params
	// Cache memoizes runs; nil disables memoization.
	Cache *RunCache
	// Policy supervises the sweep: budgets and deadlines bound each cell,
	// supervised kills become FAILED cells instead of aborting the study,
	// and an attached journal makes the sweep crash-resumable. Nil runs
	// unsupervised (any error aborts, the historical behaviour).
	Policy *RunPolicy
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Topo == nil {
		c.Topo = topology.DAS()
	}
	if c.Params == (network.Params{}) {
		c.Params = network.DefaultParams()
	}
	if c.Drops == nil {
		c.Drops = DefaultChaosDrops
	}
	if c.Outages == nil {
		c.Outages = DefaultChaosOutages
	}
	if c.OutagePeriod == 0 {
		c.OutagePeriod = sim.Second
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// ChaosPoint is one cell of the sweep: one application variant under one
// fault setting.
type ChaosPoint struct {
	App            string
	Optimized      bool
	DropRate       float64
	OutageDuration sim.Time
	// Elapsed is the faulty multi-cluster runtime TM.
	Elapsed sim.Time
	// RelSpeedupPct is the paper metric 100*TL/TM against the fault-free
	// single-cluster baseline.
	RelSpeedupPct float64
	// Transport and Faults record the protocol effort spent healing the run.
	Transport trace.TransportStats
	Faults    network.FaultStats
	// Failed is the stable failure kind ("deadline", "livelock",
	// "retry-cap", ...) when the run policy gave up on this cell; "" for a
	// completed run. A failed point carries no timing or protocol data.
	Failed string `json:",omitempty"`
}

// ChaosStudy sweeps the fault grid over every application variant and
// returns one point per (variant, drop rate, outage duration) cell, in
// deterministic order: application (Table 1 order), then variant, then
// drop rate, then outage duration.
func ChaosStudy(cfg ChaosConfig) ([]ChaosPoint, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Regime.Validate(); err != nil {
		return nil, err
	}
	var cells []Cell
	for _, v := range paperVariants(nil) {
		for _, drop := range cfg.Drops {
			for _, outage := range cfg.Outages {
				f := faults.Params{DropRate: drop, Seed: cfg.Seed}
				if outage > 0 {
					f.OutagePeriod = cfg.OutagePeriod
					f.OutageDuration = outage
				}
				// Unoptimized variants and heavier faults simulate more
				// virtual time; start them first to keep the worker pool's
				// tail short.
				w := 1 + 20*drop + float64(outage)/float64(sim.Second)
				if !v.opt {
					w *= 3
				}
				cells = append(cells, Cell{
					Label: fmt.Sprintf("chaos %s (%s) drop=%g outage=%v",
						v.app.Name, variantName(v.opt), drop, outage),
					Weight: w,
					X: Experiment{
						App: v.app, Scale: cfg.Scale, Optimized: v.opt,
						Topo: cfg.Topo, Params: cfg.Params, WAN: cfg.WAN, Faults: f,
						Regime: cfg.Regime,
					},
				})
			}
		}
	}
	ans, err := Simulate{}.Solve(cells, cfg.Policy, cfg.Cache)
	if err != nil {
		return nil, err
	}
	points := make([]ChaosPoint, len(cells))
	for i, a := range ans {
		x := cells[i].X
		p := ChaosPoint{
			App: x.App.Name, Optimized: x.Optimized,
			DropRate: x.Faults.DropRate, OutageDuration: x.Faults.OutageDuration,
		}
		if a.Fail != nil {
			p.Failed = a.Fail.Kind
		} else {
			p.Elapsed = a.Result.Elapsed
			p.RelSpeedupPct = a.RelPct()
			p.Transport = a.Result.Transport
			p.Faults = a.Result.Faults
		}
		points[i] = p
	}
	return points, nil
}

// ChaosThreshold is the summary row for one variant: the smallest injected
// fault that pushes it below the acceptability criterion.
type ChaosThreshold struct {
	App       string
	Optimized bool
	// CleanPct is the relative speedup with no faults injected.
	CleanPct float64
	// DropThreshold is the smallest swept loss rate (outages off) at which
	// the variant falls below ChaosCriterionPct; -1 if it never does.
	DropThreshold float64
	// OutageThreshold is the smallest swept outage duration (loss off)
	// below the criterion; -1 if it never falls.
	OutageThreshold sim.Time
}

// ChaosThresholds reduces a study to one row per variant.
func ChaosThresholds(points []ChaosPoint) []ChaosThreshold {
	type key struct {
		app string
		opt bool
	}
	var order []key
	rows := make(map[key]*ChaosThreshold)
	for _, p := range points {
		if p.Failed != "" {
			// A killed run carries no speedup; it must not masquerade as
			// "fell below the criterion at this fault level".
			continue
		}
		k := key{p.App, p.Optimized}
		t, ok := rows[k]
		if !ok {
			t = &ChaosThreshold{App: p.App, Optimized: p.Optimized,
				DropThreshold: -1, OutageThreshold: -1}
			rows[k] = t
			order = append(order, k)
		}
		switch {
		case p.DropRate == 0 && p.OutageDuration == 0:
			t.CleanPct = p.RelSpeedupPct
		case p.OutageDuration == 0 && p.RelSpeedupPct < ChaosCriterionPct:
			if t.DropThreshold < 0 || p.DropRate < t.DropThreshold {
				t.DropThreshold = p.DropRate
			}
		case p.DropRate == 0 && p.RelSpeedupPct < ChaosCriterionPct:
			if t.OutageThreshold < 0 || p.OutageDuration < t.OutageThreshold {
				t.OutageThreshold = p.OutageDuration
			}
		}
	}
	out := make([]ChaosThreshold, len(order))
	for i, k := range order {
		out[i] = *rows[k]
	}
	return out
}

// RenderChaosSummary formats the thresholds as the study's headline table.
func RenderChaosSummary(points []ChaosPoint) string {
	t := stats.NewTable("Program", "Variant", "Clean rel. speedup",
		"Loss rate breaking 60%", "Outage breaking 60%")
	for _, r := range ChaosThresholds(points) {
		drop, outage := "never", "never"
		if r.CleanPct < ChaosCriterionPct {
			drop, outage = "already below", "already below"
		} else {
			if r.DropThreshold >= 0 {
				drop = fmt.Sprintf("%g", r.DropThreshold)
			}
			if r.OutageThreshold >= 0 {
				outage = r.OutageThreshold.String()
			}
		}
		t.AddRow(r.App, variantName(r.Optimized),
			fmt.Sprintf("%.1f%%", r.CleanPct), drop, outage)
	}
	return t.String()
}

// WriteChaosCSV emits the full grid as CSV. The formatting is fixed-point
// and the row order deterministic, so two same-seed studies produce
// byte-identical files. Cells the run policy gave up on appear as explicit
// FAILED(reason) rows in the status column with empty metrics, so a
// degraded sweep still documents its whole grid.
func WriteChaosCSV(w io.Writer, points []ChaosPoint) {
	t := stats.NewTable("app", "variant", "drop_rate", "outage_ms", "status",
		"elapsed_ms", "relative_speedup_pct",
		"timeouts", "retransmits", "acks",
		"dropped", "outage_dropped", "duplicated")
	for _, p := range points {
		if p.Failed != "" {
			t.AddRow(p.App, variantName(p.Optimized),
				fmt.Sprintf("%g", p.DropRate),
				fmt.Sprintf("%.1f", float64(p.OutageDuration)/float64(sim.Millisecond)),
				FailedCell(p.Failed), "", "", "", "", "", "", "", "")
			continue
		}
		t.AddRow(p.App, variantName(p.Optimized),
			fmt.Sprintf("%g", p.DropRate),
			fmt.Sprintf("%.1f", float64(p.OutageDuration)/float64(sim.Millisecond)),
			"ok",
			fmt.Sprintf("%.3f", float64(p.Elapsed)/float64(sim.Millisecond)),
			fmt.Sprintf("%.2f", p.RelSpeedupPct),
			fmt.Sprint(p.Transport.Timeouts),
			fmt.Sprint(p.Transport.Retransmits),
			fmt.Sprint(p.Transport.Acks),
			fmt.Sprint(p.Faults.Dropped),
			fmt.Sprint(p.Faults.OutageDropped),
			fmt.Sprint(p.Faults.Duplicated))
	}
	t.CSV(w)
}
