package core

import (
	"slices"

	"twolayer/internal/apps"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// A study is one list of cells answered by one Solver: the study lays its
// axes out as Cells, the solver answers the whole batch, and the study
// renders or writes CSV from the answers. Figure 3 (and the heatmap on its
// log-spaced axes), Figure 4, the cluster-shape, chaos and topology
// studies and `sweep` all run this way. Simulate runs every cell; Analytic
// (analytic.go) records one dependency graph per variant and solves every
// cell of the variant from it.

// Cell is one grid point of a study.
type Cell struct {
	// Label names the cell in failures, errors and pprof labels.
	Label string
	// Weight orders the simulating pool longest-job-first: heavier cells
	// start first. Equal weights keep cell order.
	Weight float64
	X      Experiment
}

// Answer is a solver's reply for one cell.
type Answer struct {
	// Result is the cell's run. The analytic solver fills only Elapsed.
	Result par.Result
	// Baseline is the single-cluster runtime (the paper's TL) of the
	// cell's application at the cell's processor count; zero for a failed
	// cell.
	Baseline sim.Time
	// Fail is set when the run policy gave up on the cell — under the
	// analytic solver, on the recording that answers the cell's variant.
	Fail *CellFailure
	// Report is the analytic health and sensitivity summary of the cell's
	// variant, shared by all its cells; nil under Simulate.
	Report *AnalyticReport
}

// RelPct is the paper's Figure 3 metric for an answered cell.
func (a Answer) RelPct() float64 { return RelativeSpeedup(a.Baseline, a.Result.Elapsed) }

// Solver answers a batch of cells under a run policy (nil runs
// unsupervised) and run cache (nil disables memoization). Answers are in
// cell order. A cell the policy gave up on comes back with Fail set; any
// other error aborts the batch.
type Solver interface {
	Solve(cells []Cell, pol *RunPolicy, cache *RunCache) ([]Answer, error)
}

// Simulate is the solver that runs every cell, longest-job-first on the
// sweep pool.
type Simulate struct{}

// Solve runs each cell through the policy and cache.
func (Simulate) Solve(cells []Cell, pol *RunPolicy, cache *RunCache) ([]Answer, error) {
	base := newBaselineSet(cells, cache)
	out := make([]Answer, len(cells))
	err := forEachWeighted(len(cells),
		func(i int) float64 { return cells[i].Weight },
		func(i int) string { return cells[i].Label },
		func(i int) error {
			c := cells[i]
			res, fail, err := pol.run(c.Label, c.X, cache)
			if err != nil || fail != nil {
				out[i].Fail = fail
				return err
			}
			tl, err := base.of(c.X)
			out[i] = Answer{Result: res, Baseline: tl}
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// baselineSet resolves the single-cluster baselines of one batch, one
// Baselines memo per scale.
type baselineSet map[apps.Scale]*Baselines

func newBaselineSet(cells []Cell, cache *RunCache) baselineSet {
	b := baselineSet{}
	for _, c := range cells {
		if b[c.X.Scale] == nil {
			b[c.X.Scale] = NewBaselinesCached(c.X.Scale, cache)
		}
	}
	return b
}

func (b baselineSet) of(x Experiment) (sim.Time, error) {
	return b[x.Scale].SingleCluster(x.App, x.Topo.Procs())
}

// variant is one application variant of the paper suite.
type variant struct {
	app apps.Info
	opt bool
}

// paperVariants mirrors the golden-run variant list, restricted to names
// when non-empty: every application unoptimized, plus the cluster-aware
// version where the paper has one, in Table 1 order.
func paperVariants(names []string) []variant {
	var vs []variant
	for _, a := range Apps() {
		if len(names) > 0 && !slices.Contains(names, a.Name) {
			continue
		}
		vs = append(vs, variant{a, false})
		if a.HasOptimized {
			vs = append(vs, variant{a, true})
		}
	}
	return vs
}

func variantName(optimized bool) string {
	if optimized {
		return "optimized"
	}
	return "unoptimized"
}
