package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// Sweeps run many simulations at once on the pool (forEach), so runs must
// share no mutable state: a result may not depend on what else is running.
// These tests hold concurrent runs to deep Result equality with runs made
// one at a time, over every golden variant and over fault-injected
// configurations. CI runs TestGoldenDeterminismParallel under -race (the
// name rides the golden -race regex), which is what proves concurrent runs
// share no unsynchronized state.

// resultsEqual compares every deterministic field of two Results.
func resultsEqual(t *testing.T, label string, a, b par.Result) {
	t.Helper()
	if a.Elapsed != b.Elapsed {
		t.Errorf("%s: Elapsed %d vs %d", label, a.Elapsed, b.Elapsed)
	}
	if a.Events != b.Events {
		t.Errorf("%s: Events %d vs %d", label, a.Events, b.Events)
	}
	if a.WAN != b.WAN {
		t.Errorf("%s: WAN %+v vs %+v", label, a.WAN, b.WAN)
	}
	if a.Intra != b.Intra {
		t.Errorf("%s: Intra %+v vs %+v", label, a.Intra, b.Intra)
	}
	if a.Transport != b.Transport {
		t.Errorf("%s: Transport %+v vs %+v", label, a.Transport, b.Transport)
	}
	if a.Faults != b.Faults {
		t.Errorf("%s: Faults %+v vs %+v", label, a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.PerProcFinish, b.PerProcFinish) {
		t.Errorf("%s: PerProcFinish differs", label)
	}
	if !reflect.DeepEqual(a.PerProcCompute, b.PerProcCompute) {
		t.Errorf("%s: PerProcCompute differs", label)
	}
	if !reflect.DeepEqual(a.ClusterWANOut, b.ClusterWANOut) {
		t.Errorf("%s: ClusterWANOut %+v vs %+v", label, a.ClusterWANOut, b.ClusterWANOut)
	}
}

// concurrentCopies runs x n times at once on the sweep pool and returns
// the results in index order.
func concurrentCopies(t *testing.T, x Experiment, n int) []par.Result {
	t.Helper()
	out := make([]par.Result, n)
	err := forEach(n, func(i int) error {
		var err error
		out[i], err = x.Run()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenDeterminismParallel runs every golden variant alone and as
// three concurrent copies, and requires the pinned golden values plus deep
// Result equality between all of them.
func TestGoldenDeterminismParallel(t *testing.T) {
	for _, g := range GoldenRuns {
		g := g
		name := goldenName(g)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			x := goldenExperiment(t, g)
			seq, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			if seq.Elapsed != g.Elapsed || seq.Events != g.Events {
				t.Fatalf("run off golden: %d ns / %d events, want %d / %d",
					seq.Elapsed, seq.Events, g.Elapsed, g.Events)
			}
			for i, res := range concurrentCopies(t, x, 3) {
				resultsEqual(t, fmt.Sprintf("%s/copy%d", name, i), seq, res)
			}
		})
	}
}

// TestParallelFaultedDifferential extends the concurrency contract to fault
// injection with drops, duplicates, reordering jitter and outages, where the
// fault plan and the reliable transport's timers, retransmissions and acks
// all carry per-run state.
func TestParallelFaultedDifferential(t *testing.T) {
	configs := []struct {
		name string
		f    faults.Params
	}{
		{"drop1pct", faults.Params{DropRate: 0.01, Seed: 7}},
		{"lossy", faults.Params{DropRate: 0.05, DupRate: 0.02,
			ReorderJitter: 2 * sim.Millisecond, Seed: 11}},
		{"outage", faults.Params{DropRate: 0.01, OutagePeriod: 40 * sim.Millisecond,
			OutageDuration: 5 * sim.Millisecond, Seed: 3}},
	}
	names := []string{"FFT", "ASP", "TSP"}
	for _, cfg := range configs {
		for _, appName := range names {
			cfg, appName := cfg, appName
			t.Run(cfg.name+"/"+appName, func(t *testing.T) {
				t.Parallel()
				app, err := AppByName(appName)
				if err != nil {
					t.Fatal(err)
				}
				x := Experiment{
					App: app, Scale: apps.Tiny, Optimized: true,
					Topo:   topology.DAS(),
					Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
					Faults: cfg.f,
				}
				seq, err := x.Run()
				if err != nil {
					t.Fatal(err)
				}
				if seq.Transport.Acks == 0 {
					t.Fatal("no reliable-transport traffic; differential is vacuous")
				}
				for i, res := range concurrentCopies(t, x, 2) {
					resultsEqual(t, fmt.Sprintf("%s/%s/copy%d", cfg.name, appName, i), seq, res)
				}
			})
		}
	}
}

// TestParallelismFromGOMAXPROCS pins the sweep pool's size: one cell per
// schedulable core (GOMAXPROCS, not the machine's CPU count), whatever the
// deprecated process-wide worker default holds.
func TestParallelismFromGOMAXPROCS(t *testing.T) {
	procs, workers := runtime.GOMAXPROCS(0), DefaultWorkers()
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		SetDefaultWorkers(workers)
	})
	for _, p := range []int{1, 2, 4} {
		for _, w := range []int{0, 2, 4} {
			t.Run(fmt.Sprintf("gomaxprocs=%d/workers=%d", p, w), func(t *testing.T) {
				runtime.GOMAXPROCS(p)
				SetDefaultWorkers(w)
				if got := parallelism(); got != p {
					t.Errorf("parallelism() = %d, want %d", got, p)
				}
			})
		}
	}
}
