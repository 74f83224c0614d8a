package core

import (
	"fmt"
	"slices"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

// Figure3Panel is one of the paper's twelve speedup panels: relative
// speedup (percent of the 32-processor all-Myrinet run) for every
// latency/bandwidth combination, for one application variant.
type Figure3Panel struct {
	App       string
	Optimized bool
	// Latencies and Bandwidths are the axes; Rel[i][j] is the relative
	// speedup at Latencies[i] x Bandwidths[j].
	Latencies  []sim.Time
	Bandwidths []float64
	Rel        [][]float64
	// Failed, when non-nil, marks cells the run policy gave up on:
	// Failed[i][j] is the stable failure kind ("deadline", "livelock", ...)
	// or "" for a healthy cell. It is nil when every cell succeeded, so
	// fully healthy sweeps keep their historical encoding.
	Failed [][]string `json:",omitempty"`
	// Report is the variant's analytic recording health and sensitivity
	// when the Analytic solver answered the panel; nil when simulated.
	Report *AnalyticReport `json:",omitempty"`
}

// Figure3Options narrows a sweep.
type Figure3Options struct {
	// Apps restricts the applications by name; empty means all six.
	Apps []string
	// Latencies and Bandwidths override the paper's axes; nil means the
	// full grid.
	Latencies  []sim.Time
	Bandwidths []float64
	// Topo overrides the machine; nil means the 4x8 DAS shape.
	Topo *topology.Topology
	// WAN overrides the wide-area graph; nil means the paper's clique.
	WAN *wantopo.WAN
	// Cache memoizes runs; nil means the process-wide DefaultCache. Cells
	// shared with other sweeps (Figure 4 points, gap-analysis inputs,
	// single-cluster baselines) are then simulated only once per process.
	Cache *RunCache
	// Policy supervises the sweep (budgets, deadline, per-cell
	// degradation, resume journal); nil runs unsupervised.
	Policy *RunPolicy
}

// Figure3 sweeps the grid and returns one panel per (application, variant)
// pair — twelve panels at full scope, matching the paper's figure (FFT
// contributes a single panel, as in the paper). Runs execute concurrently;
// results are deterministic regardless.
func Figure3(scale apps.Scale, opts Figure3Options) ([]Figure3Panel, error) {
	return SolveFigure3(Simulate{}, scale, opts)
}

// SolveFigure3 is Figure3 answered through solver s.
func SolveFigure3(s Solver, scale apps.Scale, opts Figure3Options) ([]Figure3Panel, error) {
	lats := opts.Latencies
	if lats == nil {
		lats = Latencies
	}
	bws := opts.Bandwidths
	if bws == nil {
		bws = Bandwidths
	}
	topo := opts.Topo
	if topo == nil {
		topo = topology.DAS()
	}
	cache := opts.Cache
	if cache == nil {
		cache = DefaultCache
	}

	variants := paperVariants(opts.Apps)
	base := NewBaselinesCached(scale, cache)
	var cells []Cell
	for _, v := range variants {
		// The baseline weighs the variant's cells; warming it
		// sequentially also avoids duplicate runs.
		tl, err := base.SingleCluster(v.app, topo.Procs())
		if err != nil {
			return nil, err
		}
		for _, lat := range lats {
			for _, bw := range bws {
				cells = append(cells, Cell{
					Label: fmt.Sprintf("%s (%s) lat=%v bw=%gMB/s",
						v.app.Name, variantName(v.opt), lat, bw/1e6),
					// Longest-job-first: a cell's wall-clock cost grows
					// with the application's baseline runtime and with the
					// wide-area latency (slow links stretch the simulated
					// execution, which the simulator must step through).
					// The product is a crude but monotone proxy.
					Weight: float64(tl) * (1 + float64(lat)),
					X: Experiment{
						App: v.app, Scale: scale, Optimized: v.opt, Topo: topo,
						Params: network.DefaultParams().WithWAN(lat, bw),
						WAN:    opts.WAN,
					},
				})
			}
		}
	}
	ans, err := s.Solve(cells, opts.Policy, cache)
	if err != nil {
		return nil, err
	}
	panels := make([]Figure3Panel, len(variants))
	for v, va := range variants {
		p := Figure3Panel{
			App: va.app.Name, Optimized: va.opt,
			Latencies: lats, Bandwidths: bws,
			Rel: make([][]float64, len(lats)),
		}
		for i := range lats {
			p.Rel[i] = make([]float64, len(bws))
			for j := range bws {
				a := ans[(v*len(lats)+i)*len(bws)+j]
				p.Report = a.Report
				if a.Fail == nil {
					p.Rel[i][j] = a.RelPct()
					continue
				}
				// Only a panel with a failure carries a Failed grid, keeping
				// the historical shape (and JSON encoding) for healthy ones.
				if p.Failed == nil {
					p.Failed = make([][]string, len(lats))
					for k := range p.Failed {
						p.Failed[k] = make([]string, len(bws))
					}
				}
				p.Failed[i][j] = a.Fail.Kind
			}
		}
		panels[v] = p
	}
	return panels, nil
}

// PanelReports returns the analytic reports the panels carry, in panel
// order; empty for simulated panels.
func PanelReports(panels []Figure3Panel) []AnalyticReport {
	var reps []AnalyticReport
	for _, p := range panels {
		if p.Report != nil {
			reps = append(reps, *p.Report)
		}
	}
	return reps
}

// RenderFigure3Panel formats one panel as a latency x bandwidth table of
// relative speedup percentages.
func RenderFigure3Panel(p Figure3Panel) string {
	variant := "unoptimized"
	if p.Optimized {
		variant = "optimized"
	}
	header := []string{fmt.Sprintf("%s (%s) lat\\bw", p.App, variant)}
	for _, bw := range p.Bandwidths {
		header = append(header, fmt.Sprintf("%.2gMB/s", bw/1e6))
	}
	t := stats.NewTable(header...)
	for i, lat := range p.Latencies {
		row := []any{lat.String()}
		for j := range p.Bandwidths {
			if k := p.FailedAt(i, j); k != "" {
				row = append(row, FailedCell(k))
			} else {
				row = append(row, fmt.Sprintf("%.1f%%", p.Rel[i][j]))
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// FailedAt returns the failure kind recorded for cell (i, j), "" when the
// cell succeeded (or the panel has no failures at all).
func (p Figure3Panel) FailedAt(i, j int) string {
	if p.Failed == nil {
		return ""
	}
	return p.Failed[i][j]
}

// Figure4Curve is one application's inter-cluster communication-time
// percentage along one axis of the paper's Figure 4.
type Figure4Curve struct {
	App       string
	Optimized bool
	X         []float64 // bandwidth in bytes/s or latency in ms
	CommPct   []float64
	// Failed, when non-nil, parallels X: the failure kind of each point
	// the run policy gave up on, "" for healthy points. Nil when the whole
	// curve succeeded.
	Failed []string `json:",omitempty"`
}

// Figure4Bandwidth reproduces the left-hand graph: communication time
// percentage as a function of wide-area bandwidth at 3.3 ms latency,
// for the best (optimized where available) variant of each application.
// pol supervises the sweep; nil runs unsupervised.
func Figure4Bandwidth(scale apps.Scale, pol *RunPolicy) ([]Figure4Curve, error) {
	return SolveFigure4(Simulate{}, scale, true, pol)
}

// Figure4Latency reproduces the right-hand graph: communication time
// percentage as a function of wide-area latency at 0.9 MByte/s.
func Figure4Latency(scale apps.Scale, pol *RunPolicy) ([]Figure4Curve, error) {
	return SolveFigure4(Simulate{}, scale, false, pol)
}

// SolveFigure4 answers one Figure 4 graph — the bandwidth axis at 3.3 ms,
// or the latency axis at 0.9 MByte/s — through solver s.
func SolveFigure4(s Solver, scale apps.Scale, byBandwidth bool, pol *RunPolicy) ([]Figure4Curve, error) {
	const fixedLatency = 3300 * sim.Microsecond
	const fixedBandwidth = 0.9e6
	xs := Bandwidths
	if !byBandwidth {
		xs = nil
		for _, l := range Latencies {
			xs = append(xs, l.Milliseconds())
		}
	}
	suite := Apps()
	var cells []Cell
	for _, app := range suite {
		for k, x := range xs {
			params := network.DefaultParams().WithWAN(fixedLatency, x)
			if !byBandwidth {
				params = network.DefaultParams().WithWAN(Latencies[k], fixedBandwidth)
			}
			cells = append(cells, Cell{
				Label: fmt.Sprintf("%s (%s) figure4 x=%g", app.Name, variantName(app.HasOptimized), x),
				X: Experiment{
					App: app, Scale: scale, Optimized: app.HasOptimized,
					Topo: topology.DAS(), Params: params,
				},
			})
		}
	}
	ans, err := s.Solve(cells, pol, DefaultCache)
	if err != nil {
		return nil, err
	}
	curves := make([]Figure4Curve, len(suite))
	for i, app := range suite {
		c := Figure4Curve{App: app.Name, Optimized: app.HasOptimized, X: slices.Clone(xs)}
		for k := range xs {
			a := ans[i*len(xs)+k]
			if a.Fail == nil {
				c.CommPct = append(c.CommPct, CommTimePercent(a.Baseline, a.Result.Elapsed))
				continue
			}
			if c.Failed == nil {
				c.Failed = make([]string, len(xs))
			}
			c.CommPct = append(c.CommPct, 0)
			c.Failed[k] = a.Fail.Kind
		}
		curves[i] = c
	}
	return curves, nil
}

// RenderFigure4 formats a set of curves as a table with one column per
// application.
func RenderFigure4(curves []Figure4Curve, xLabel string) string {
	header := []string{xLabel}
	for _, c := range curves {
		header = append(header, c.App)
	}
	t := stats.NewTable(header...)
	if len(curves) == 0 {
		return t.String()
	}
	for k := range curves[0].X {
		row := []any{fmt.Sprintf("%.4g", curves[0].X[k])}
		for _, c := range curves {
			if c.Failed != nil && c.Failed[k] != "" {
				row = append(row, FailedCell(c.Failed[k]))
			} else {
				row = append(row, fmt.Sprintf("%.1f%%", c.CommPct[k]))
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}
