package core

import (
	"fmt"
	"io"
	"math"

	"twolayer/internal/apps"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
)

// The sensitivity heatmap is the dense version of Figure 3 that the batched
// analytic solver makes affordable: instead of the paper's 7x6 grid, every
// variant is solved on an n x n logarithmic lattice spanning the same
// latency and bandwidth extremes — thousands of wide-area points answered
// from one recording per variant. Point-at-a-time this was a cold-start
// proposition; through Eval.SolveBatch the whole lattice is a handful of
// structure-of-arrays passes.

// DefaultHeatmapSize is the lattice resolution of `figures -heatmap`.
const DefaultHeatmapSize = 64

// HeatmapLatencies returns n log-spaced wide-area latencies from the paper
// grid's fastest to its slowest (500 us to 300 ms). The interpolation is
// a deterministic closed form of the index, so reruns produce identical
// axes (and identical CSV bytes).
func HeatmapLatencies(n int) []sim.Time {
	lo, hi := Latencies[0], Latencies[len(Latencies)-1]
	ratio := float64(hi) / float64(lo)
	out := make([]sim.Time, n)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = sim.Time(math.Round(float64(lo) * math.Pow(ratio, f)))
	}
	return out
}

// HeatmapBandwidths returns n log-spaced wide-area bandwidths from the
// paper grid's fastest to its most starved (6.3 MB/s down to 0.03 MB/s),
// descending like the paper's Bandwidths axis.
func HeatmapBandwidths(n int) []float64 {
	lo, hi := Bandwidths[0], Bandwidths[len(Bandwidths)-1]
	ratio := hi / lo
	out := make([]float64, n)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(ratio, f)
	}
	return out
}

// HeatmapOptions configures a sensitivity heatmap.
type HeatmapOptions struct {
	// Size is the cells per axis; 0 means DefaultHeatmapSize. Must be at
	// least 2 (each axis interpolates between two grid extremes).
	Size int
	// Apps restricts the applications by name; empty means all six.
	Apps []string
	// Cache memoizes the per-variant recordings; nil means DefaultCache.
	Cache *RunCache
	// Policy supervises the recording runs.
	Policy *RunPolicy
	// Analytic is the solver that answers the lattice.
	Analytic Analytic
}

// Heatmap solves the dense per-variant sensitivity lattice analytically.
// It is Figure 3 on log-spaced axes through the Analytic solver: one
// recording per variant at the reference point, then Size x Size
// wide-area cells per variant in one batched pass. Alongside the panels it
// returns one AnalyticReport per variant.
func Heatmap(scale apps.Scale, opts HeatmapOptions) ([]Figure3Panel, []AnalyticReport, error) {
	n := opts.Size
	if n == 0 {
		n = DefaultHeatmapSize
	}
	if n < 2 {
		return nil, nil, fmt.Errorf("core: heatmap needs at least a 2x2 lattice, got size %d", n)
	}
	panels, err := SolveFigure3(opts.Analytic, scale, Figure3Options{
		Apps:       opts.Apps,
		Latencies:  HeatmapLatencies(n),
		Bandwidths: HeatmapBandwidths(n),
		Cache:      opts.Cache,
		Policy:     opts.Policy,
	})
	return panels, PanelReports(panels), err
}

// WriteFigure3CSV emits one panel as CSV under its own header row, the
// `figures -fig3 -csv` format.
func WriteFigure3CSV(w io.Writer, p Figure3Panel) {
	t := newPanelTable()
	addPanelRows(t, p, "%.4g")
	t.CSV(w)
}

// WriteHeatmapCSV emits the heatmap panels as one flat CSV (the same
// columns as `figures -fig3 -csv`, so downstream plotting scripts read
// both). Cell order — variant, then latency, then bandwidth — and number
// formatting are fixed, so identical panels produce identical bytes.
func WriteHeatmapCSV(w io.Writer, panels []Figure3Panel) {
	t := newPanelTable()
	for _, p := range panels {
		addPanelRows(t, p, "%.6g")
	}
	t.CSV(w)
}

func newPanelTable() *stats.Table {
	return stats.NewTable("app", "variant", "latency_ms", "bandwidth_MBs", "relative_speedup_pct")
}

// addPanelRows appends one row per cell, the axes formatted with axisFmt.
func addPanelRows(t *stats.Table, p Figure3Panel, axisFmt string) {
	for i, lat := range p.Latencies {
		for j, bw := range p.Bandwidths {
			value := fmt.Sprintf("%.2f", p.Rel[i][j])
			if k := p.FailedAt(i, j); k != "" {
				value = FailedCell(k)
			}
			t.AddRow(p.App, variantName(p.Optimized),
				fmt.Sprintf(axisFmt, lat.Milliseconds()),
				fmt.Sprintf(axisFmt, bw/1e6),
				value)
		}
	}
}
