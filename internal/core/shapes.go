package core

import (
	"fmt"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
)

// ShapeResult is one point of the Section 5.1 cluster-structure experiment:
// the same 32 processors arranged as different numbers of clusters, on a
// fully connected wide-area mesh.
type ShapeResult struct {
	App      string
	Shape    string
	Clusters int
	Elapsed  sim.Time
	RelPct   float64 // relative to the single-cluster run
	// Failed is the failure kind when the run policy gave up on this
	// cell, "" for a healthy run.
	Failed string `json:",omitempty"`
}

// DefaultShapes are the 32-processor arrangements the study compares.
func DefaultShapes() []*topology.Topology {
	return []*topology.Topology{
		topology.MustUniform(2, 16),
		topology.MustUniform(4, 8),
		topology.MustUniform(8, 4),
	}
}

// ClusterShapeStudy runs the optimized variants over the shapes at the
// given wide-area setting. On the fully connected mesh, more and smaller
// clusters add bisection bandwidth, so bandwidth-bound applications speed
// up even though fast links were replaced by slow ones. pol supervises the
// sweep; nil runs unsupervised.
func ClusterShapeStudy(scale apps.Scale, appNames []string, wanLatency sim.Time, wanBandwidth float64, pol *RunPolicy) ([]ShapeResult, error) {
	return SolveClusterShapes(Simulate{}, scale, appNames, wanLatency, wanBandwidth, pol)
}

// SolveClusterShapes is ClusterShapeStudy answered through solver s.
func SolveClusterShapes(s Solver, scale apps.Scale, appNames []string, wanLatency sim.Time, wanBandwidth float64, pol *RunPolicy) ([]ShapeResult, error) {
	var cells []Cell
	for _, n := range appNames {
		app, err := AppByName(n)
		if err != nil {
			return nil, err
		}
		for _, topo := range DefaultShapes() {
			cells = append(cells, Cell{
				Label: fmt.Sprintf("%s shape=%s", app.Name, topo),
				X: Experiment{
					App: app, Scale: scale, Optimized: app.HasOptimized, Topo: topo,
					Params: network.DefaultParams().WithWAN(wanLatency, wanBandwidth),
				},
			})
		}
	}
	ans, err := s.Solve(cells, pol, DefaultCache)
	if err != nil {
		return nil, err
	}
	results := make([]ShapeResult, len(cells))
	for k, a := range ans {
		x := cells[k].X
		r := ShapeResult{App: x.App.Name, Shape: x.Topo.String(), Clusters: x.Topo.Clusters()}
		if a.Fail != nil {
			r.Failed = a.Fail.Kind
		} else {
			r.Elapsed = a.Result.Elapsed
			r.RelPct = a.RelPct()
		}
		results[k] = r
	}
	return results, nil
}

// RenderShapes formats the study.
func RenderShapes(results []ShapeResult) string {
	t := stats.NewTable("Program", "Shape", "Runtime", "Relative speedup")
	for _, r := range results {
		if r.Failed != "" {
			t.AddRow(r.App, r.Shape, FailedCell(r.Failed), FailedCell(r.Failed))
			continue
		}
		t.AddRow(r.App, r.Shape, r.Elapsed.String(), fmt.Sprintf("%.1f%%", r.RelPct))
	}
	return t.String()
}
