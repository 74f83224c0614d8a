package core

import (
	"errors"
	"fmt"
	"math"

	"twolayer/internal/analytic"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
)

// Analytic mode: simulate once, answer many. Each variant is simulated a
// single time at the reference network point with a dependency-graph
// recorder attached; every other grid point is then answered by re-costing
// the recorded graph's wide-area edges and replaying it (matched mode, see
// analytic.Eval.SolveMatched) in microseconds instead of seconds. The
// single-cluster baselines stay simulated (they have no wide-area edges to
// re-cost and are shared with the simulated figures through the run
// cache).

// ReferenceWANLatency and ReferenceWANBandwidth place the recording point
// at the grid center — also the golden point, so recording runs are
// cross-checked by the determinism table.
const (
	ReferenceWANLatency   = 3300 * sim.Microsecond
	ReferenceWANBandwidth = 0.95e6
)

// ReferenceParams is the network point analytic graphs are recorded at.
func ReferenceParams() network.Params {
	return network.DefaultParams().WithWAN(ReferenceWANLatency, ReferenceWANBandwidth)
}

// DefaultAnalyticTolerance is the default bound on the matched replay's
// relative error at the reference point (the self-check; the frozen replay
// must be exact there regardless).
const DefaultAnalyticTolerance = 0.05

// Analytic is the Solver that answers cells from one recorded dependency
// graph per variant instead of simulating each. The zero value uses the
// default tolerance.
type Analytic struct {
	// Tolerance bounds the matched replay's self-check error at the
	// reference point; <= 0 means DefaultAnalyticTolerance.
	Tolerance float64
}

func (a Analytic) tolerance() float64 {
	if a.Tolerance <= 0 {
		return DefaultAnalyticTolerance
	}
	return a.Tolerance
}

// CheckAnalytic reports why the analytic solver cannot answer x, nil if it
// can. The replay model re-costs one wide-area leg per cross-cluster
// message of a stationary run, so multi-hop routes, time-varying regimes,
// faults, per-run network tweaks and attached traces are all out of reach.
// The CLIs call it before any output to turn the refusal into a usage
// error; the solver calls it again on every cell.
func CheckAnalytic(x Experiment) error {
	switch {
	case x.WAN.CacheKey() != "":
		return fmt.Errorf("core: analytic mode supports only the default clique wide-area graph (got %q)", x.WAN.Spec())
	case x.Regime.Enabled():
		return errors.New("core: analytic mode needs stationary network conditions; it cannot model a regime")
	case x.Faults != (faults.Params{}):
		return errors.New("core: analytic mode cannot model wide-area faults")
	case x.Configure != nil:
		return errors.New("core: analytic mode cannot model per-run network changes (jitter, bandwidth variability)")
	case x.Trace != nil:
		return errors.New("core: analytic mode predicts from a recorded graph; a trace needs a simulated run")
	}
	return nil
}

// AnalyticReport is the per-variant health and sensitivity summary of an
// analytic sweep.
type AnalyticReport struct {
	App       string
	Optimized bool
	// Nodes and Messages size the recorded graph.
	Nodes, Messages int
	// RefErrorPct is the matched replay's relative error against the
	// simulated run at the reference point, in percent. The frozen replay
	// is verified exact separately; this measures the dynamic matcher.
	RefErrorPct float64
	// Engine is the replay engine chosen for this variant's grid solves:
	// "frozen" when the frozen replay tracked the matched replay within a
	// third of the tolerance at every grid-corner probe (so the cheap
	// incremental pass answers the grid), "matched" otherwise.
	Engine string
	// LatencySharePct and BandwidthSharePct decompose the reference-point
	// completion time LLAMP-style: the percentage bought back by a
	// zero-latency (resp. infinite-bandwidth) wide-area network.
	LatencySharePct, BandwidthSharePct float64
	// LatencyTolerance is the predicted relative speedup at each grid
	// latency, at the reference bandwidth — the application's
	// latency-tolerance curve.
	LatencyTolerance []AnalyticTolerancePoint
	// ToleratedLatency is the largest grid latency whose predicted
	// relative speedup stays at or above 60% — the paper's informal "still
	// runs well" criterion. Zero if none does.
	ToleratedLatency sim.Time
}

// AnalyticTolerancePoint is one point of the latency-tolerance curve.
type AnalyticTolerancePoint struct {
	Latency sim.Time
	RelPct  float64
}

// analyticProbes are two opposite wide-area corners of the grid: the
// fastest network (low latency, full bandwidth) and the slowest (high
// latency, starved bandwidth). A variant whose frozen replay tracks the
// matched one within a third of the tolerance at both earns the cheap
// frozen engine for its grid. The probes bound the drift at the corners,
// not at every interior cell — the per-application differential tests and
// the documented error table are the end-to-end accuracy contract.
func analyticProbes() []network.Params {
	lo, hi := Latencies[0], Latencies[len(Latencies)-1]
	fast, slow := Bandwidths[0], Bandwidths[len(Bandwidths)-1]
	return []network.Params{
		network.DefaultParams().WithWAN(lo, fast),
		network.DefaultParams().WithWAN(hi, slow),
	}
}

// analyticEval records (or loads) the graph for one variant and prepares
// its evaluator plus report skeleton. The exactness check runs on every
// load: a cached graph that no longer replays to its recorded elapsed time
// is corrupt (or the replay model drifted) and must not produce figures.
func analyticEval(label string, x Experiment, pol *RunPolicy, cache *RunCache, tol float64) (*analytic.Eval, *CellFailure, AnalyticReport, error) {
	rep := AnalyticReport{App: x.App.Name, Optimized: x.Optimized}
	g, fail, err := cache.RecordedGraph(label, x, pol)
	if err != nil || fail != nil {
		return nil, fail, rep, err
	}
	ev := analytic.NewEval(g)
	if got := ev.Solve(g.Ref); got != g.RefElapsed {
		return nil, nil, rep, fmt.Errorf("core: %s: frozen replay at the reference gives %v, recorded %v — graph corrupt or replay model drifted",
			label, got, g.RefElapsed)
	}
	rep.Nodes = g.Nodes()
	rep.Messages = g.Messages()
	refErr := relErrPct(ev.SolveMatched(g.Ref), g.RefElapsed)
	rep.RefErrorPct = refErr
	if refErr > 100*tol {
		return nil, nil, rep, fmt.Errorf("core: %s: matched replay at the reference off by %.2f%% (tolerance %.0f%%)",
			label, refErr, 100*tol)
	}
	rep.Engine = "matched"
	if ev.FrozenAccurate(analyticProbes(), tol/3) {
		rep.Engine = "frozen"
	}
	return ev, nil, rep, nil
}

// solveBatch answers many points in one batched pass on the engine the
// report's calibration chose: the incremental frozen walk shared across
// points, or the matched replay sharded across clones. Both are
// bit-identical to the point-at-a-time Solve and SolveMatched.
func solveBatch(ev *analytic.Eval, engine string, ps []network.Params) []sim.Time {
	workers := sim.DefaultWorkers()
	if engine == "frozen" {
		return ev.SolveBatchParallel(ps, workers)
	}
	return ev.SolveMatchedBatch(ps, workers)
}

func relErrPct(got, want sim.Time) float64 {
	if want <= 0 {
		return 0
	}
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return 100 * d / float64(want)
}

// Solve answers the cells analytically. Each cell's experiment is recorded
// at ReferenceParams instead of its own point (Verify dropped: it cannot
// ride on a recording); cells sharing a recording form one variant, with
// one AnalyticReport. It runs in two phases:
//
//  1. record (or load) every variant's graph in parallel, with its
//     exactness and tolerance self-checks, engine calibration and
//     single-cluster baseline;
//  2. solve each variant's cells — plus its latency-tolerance curve and
//     reference-point sensitivity — in one batched pass, heaviest graph
//     first.
//
// A recording the policy gave up on fails every cell of its variant.
func (a Analytic) Solve(cells []Cell, pol *RunPolicy, cache *RunCache) ([]Answer, error) {
	for _, c := range cells {
		if err := CheckAnalytic(c.X); err != nil {
			return nil, err
		}
	}
	if cache == nil {
		cache = NewRunCache() // the recordings live in a cache's graph layer
	}
	type group struct {
		label string
		x     Experiment // the recording
		cells []int
		rep   AnalyticReport
		g     *analytic.Graph
		tl    sim.Time
	}
	var groups []*group
	byKey := map[RunKey]*group{}
	for i, c := range cells {
		x := c.X
		x.Params = ReferenceParams()
		x.Verify = false
		gr := byKey[x.Key()]
		if gr == nil {
			gr = &group{x: x, label: fmt.Sprintf("%s (%s) on %s",
				x.App.Name, variantName(x.Optimized), x.Topo)}
			byKey[x.Key()] = gr
			groups = append(groups, gr)
		}
		gr.cells = append(gr.cells, i)
	}
	base := newBaselineSet(cells, cache)
	out := make([]Answer, len(cells))

	refLabel := func(k int) string { return groups[k].label + " analytic reference" }
	err := forEachWeighted(len(groups), nil, refLabel,
		func(k int) error {
			gr := groups[k]
			ev, fail, rep, err := analyticEval(refLabel(k), gr.x, pol, cache, a.tolerance())
			gr.rep = rep
			if err != nil || fail != nil {
				for _, i := range gr.cells {
					out[i] = Answer{Fail: fail, Report: &gr.rep}
				}
				return err
			}
			gr.g = ev.Graph()
			gr.tl, err = base.of(gr.x)
			return err
		})
	if err != nil {
		return nil, err
	}

	var live []*group
	for _, gr := range groups {
		if gr.g != nil {
			live = append(live, gr)
		}
	}
	err = forEachWeighted(len(live),
		func(k int) float64 { return float64(live[k].g.Nodes()) },
		func(k int) string { return live[k].label + " analytic solve" },
		func(k int) error {
			gr := live[k]
			n := len(gr.cells)
			pts := make([]network.Params, 0, n+len(Latencies)+3)
			for _, i := range gr.cells {
				pts = append(pts, cells[i].X.Params)
			}
			for _, lat := range Latencies {
				pts = append(pts, network.DefaultParams().WithWAN(lat, ReferenceWANBandwidth))
			}
			ref := gr.g.Ref
			zeroLat, infBW := ref, ref
			zeroLat.WANLatency = 0
			infBW.WANBandwidth = math.MaxFloat64
			pts = append(pts, ref, zeroLat, infBW)
			ts := solveBatch(analytic.NewEval(gr.g), gr.rep.Engine, pts)

			for j, i := range gr.cells {
				out[i] = Answer{Result: par.Result{Elapsed: ts[j]}, Baseline: gr.tl, Report: &gr.rep}
			}
			rep := &gr.rep
			for j, lat := range Latencies {
				rel := RelativeSpeedup(gr.tl, ts[n+j])
				rep.LatencyTolerance = append(rep.LatencyTolerance, AnalyticTolerancePoint{Latency: lat, RelPct: rel})
				if rel >= 60 {
					rep.ToleratedLatency = lat
				}
			}
			s := ts[len(ts)-3:]
			sens := analytic.Sensitivity{Elapsed: s[0], LatencyCost: s[0] - s[1], BandwidthCost: s[0] - s[2]}
			rep.LatencySharePct = 100 * sens.LatencyShare()
			rep.BandwidthSharePct = 100 * sens.BandwidthShare()
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderAnalyticReports formats the per-variant analytic summaries.
func RenderAnalyticReports(reports []AnalyticReport) string {
	t := stats.NewTable("Program", "Variant", "Graph nodes", "Messages",
		"Engine", "Ref error", "Latency share", "Bandwidth share", "Tolerated latency")
	for _, r := range reports {
		tolerated := "none"
		if r.ToleratedLatency > 0 {
			tolerated = r.ToleratedLatency.String()
		}
		t.AddRow(r.App, variantName(r.Optimized),
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Messages),
			r.Engine,
			fmt.Sprintf("%.2f%%", r.RefErrorPct),
			fmt.Sprintf("%.1f%%", r.LatencySharePct),
			fmt.Sprintf("%.1f%%", r.BandwidthSharePct),
			tolerated)
	}
	return t.String()
}
