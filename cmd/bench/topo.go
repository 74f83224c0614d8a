package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"twolayer/internal/apps"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

// topoPoint is one (cluster count, wide-area graph) cell: event rate over
// the median pass and the peak simulator heap across all passes. The
// slowdown column is the cost of multi-hop routing — same machine, same
// program, same wide-area speeds, only the graph differs.
type topoPoint struct {
	Clusters       int     `json:"clusters"`
	Topology       string  `json:"topology"`
	Diameter       int     `json:"diameter"`
	MeanPath       float64 `json:"mean_path_hops"`
	Events         uint64  `json:"events_per_run"`
	Seconds        float64 `json:"seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	PeakHeapMB     float64 `json:"peak_heap_mb"`
	CostVsClique   float64 `json:"wall_cost_vs_clique,omitempty"`
	VirtualElapsed float64 `json:"virtual_elapsed_ms"`
}

// topoReport records the wide-area-graph scaling benchmark: how the
// simulator's throughput and footprint grow as the cluster count climbs
// toward machine sizes the paper's testbed could never reach, on the
// paper's clique versus a 2D torus whose multi-hop forwarding multiplies
// wide-area traffic through the store-and-forward router.
type topoReport struct {
	Benchmark  string      `json:"benchmark"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	App        string      `json:"app"`
	Scale      string      `json:"scale"`
	Runs       int         `json:"runs"`
	Points     []topoPoint `json:"points"`
}

// topoClusters are the swept machine sizes: one processor per cluster, so
// the wide-area graph itself is the only thing that grows.
var topoClusters = []int{16, 64, 256}

// topoSpecs compares the paper's clique against the APENet-style 2D torus.
var topoSpecs = []string{"clique", "torus2"}

// peakHeap samples runtime heap use at 1 ms granularity while fn runs and
// returns the high-water mark. Sampling (rather than a single post-run
// read) catches the mid-run peak: the event queue, the wide-area link
// state and in-flight message envelopes are all live at once only during
// the run.
func peakHeap(fn func() error) (uint64, error) {
	runtime.GC()
	var peak atomic.Uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	err := fn()
	close(done)
	<-sampled
	return peak.Load(), err
}

// topoCell runs one (clusters, graph) cell repeat times and keeps the
// median wall time and the worst-case heap. Runs are cold — the point is
// the simulator's own cost, not the cache's.
func topoCell(app apps.Info, clusters int, wan *wantopo.WAN, repeat int) (topoPoint, error) {
	topo, err := topology.Uniform(clusters, 1)
	if err != nil {
		return topoPoint{}, err
	}
	x := core.Experiment{
		App: app, Scale: apps.Tiny,
		Topo:   topo,
		Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
		WAN:    wan,
	}
	var res par.Result
	var peak uint64
	times := make([]time.Duration, 0, repeat)
	for i := 0; i < repeat; i++ {
		start := time.Now()
		p, err := peakHeap(func() error {
			r, err := x.Run()
			res = r
			return err
		})
		if err != nil {
			return topoPoint{}, fmt.Errorf("%d clusters on %s: %w", clusters, wan.Spec(), err)
		}
		times = append(times, time.Since(start))
		if p > peak {
			peak = p
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	med := times[len(times)/2]
	return topoPoint{
		Clusters:       clusters,
		Topology:       wan.Spec(),
		Diameter:       wan.Diameter(),
		MeanPath:       wan.MeanPathLength(),
		Events:         res.Events,
		Seconds:        med.Seconds(),
		EventsPerSec:   float64(res.Events) / med.Seconds(),
		PeakHeapMB:     float64(peak) / (1 << 20),
		VirtualElapsed: float64(res.Elapsed) / 1e6,
	}, nil
}

// benchTopo measures the wide-area topology subsystem's scaling cost:
// ASP (latency-tolerant, so runs complete even at 256 multi-hop clusters)
// at Tiny scale, one processor per cluster, 16 -> 256 clusters, clique vs
// 2D torus, on the sequential kernel. The torus column pays
// for multi-hop store-and-forward routing — more wide-area messages, more
// contended links — and the report makes that cost a tracked number.
func benchTopo(repeat int) (topoReport, error) {
	app, err := core.AppByName("ASP")
	if err != nil {
		return topoReport{}, err
	}
	rep := topoReport{
		Benchmark:  "wan_topology_scaling",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		App:        app.Name,
		Scale:      "tiny",
		Runs:       repeat,
	}
	for _, c := range topoClusters {
		var clique topoPoint
		for _, spec := range topoSpecs {
			wan, err := wantopo.Parse(spec, c)
			if err != nil {
				return rep, err
			}
			fmt.Fprintf(os.Stderr, "bench: %d clusters on %s...\n", c, wan.Spec())
			p, err := topoCell(app, c, wan, repeat)
			if err != nil {
				return rep, err
			}
			if wan.IsClique() {
				clique = p
			} else if clique.Seconds > 0 {
				p.CostVsClique = p.Seconds / clique.Seconds
			}
			rep.Points = append(rep.Points, p)
		}
	}
	return rep, nil
}
