package par

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
	"twolayer/internal/wantopo"
)

// randomJob builds a deterministic synthetic workload from a seed: rounds
// of jittered compute followed by a shifting-ring exchange, the
// send/recv/compute mix the paper applications reduce to. Every rank runs
// the same program, so the job is deadlock-free by construction, and all
// randomness comes from the per-trial rand stream captured at build time —
// the job itself is a pure function of (seed, rank).
func randomJob(seed int64, rounds int) Job {
	return func(e *Env) {
		rng := rand.New(rand.NewSource(seed + int64(e.Rank())))
		for r := 0; r < rounds; r++ {
			e.Compute(sim.Time(rng.Intn(50)+1) * sim.Microsecond)
			stride := r%(e.Size()-1) + 1
			dst := (e.Rank() + stride) % e.Size()
			bytes := int64(rng.Intn(4096) + 16)
			e.Send(dst, Tag(r), r, bytes)
			m := e.Recv(Tag(r))
			if m.Data.(int) != r {
				panic(fmt.Sprintf("rank %d round %d: got %v", e.Rank(), r, m.Data))
			}
		}
	}
}

// randomSpecs are the wide-area graph families the randomized trials draw
// from; a family Parse rejects for the trial's cluster count is skipped.
var randomSpecs = []string{"clique", "ring", "torus2", "circulant", "fattree:2"}

// TestRandomizedParallelDifferential drives random topologies, wide-area
// graphs, speeds and fault plans through the engine, first alone and then
// as two copies running in parallel goroutines — one plain, one observed by
// a streaming trace sink — and requires bit-identical results every time.
// Runs share no mutable state, and tracing is pure observation, on
// multi-hop graphs as on the clique.
func TestRandomizedParallelDifferential(t *testing.T) {
	master := rand.New(rand.NewSource(20260809))
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		clusters := master.Intn(4) + 2
		perCluster := master.Intn(5) + 2
		topo, err := topology.Uniform(clusters, perCluster)
		if err != nil {
			t.Fatal(err)
		}
		var wan *wantopo.WAN
		for wan == nil {
			wan, _ = wantopo.Parse(randomSpecs[master.Intn(len(randomSpecs))], clusters)
		}
		params := network.DefaultParams().WithWAN(
			sim.Time(master.Intn(20000)+200)*sim.Microsecond,
			float64(master.Intn(90)+10)*1e5)
		var fp faults.Params
		if master.Intn(2) == 1 {
			fp = faults.Params{
				DropRate: float64(master.Intn(5)) / 100,
				DupRate:  float64(master.Intn(3)) / 100,
				Seed:     master.Int63(),
			}
			if master.Intn(2) == 1 {
				fp.ReorderJitter = sim.Time(master.Intn(3)) * sim.Millisecond
			}
			if master.Intn(3) == 0 {
				fp.OutagePeriod = 50 * sim.Millisecond
				fp.OutageDuration = 2 * sim.Millisecond
			}
		}
		jobSeed := master.Int63()
		rounds := master.Intn(12) + 3
		name := fmt.Sprintf("trial%02d_%dx%d_%s", trial, clusters, perCluster, wan.Spec())

		run := func(sink trace.Sink) (Result, error) {
			return RunWith(topo, Options{
				Params: params, WAN: wan, Seed: 42, Faults: fp, Trace: sink,
			}, randomJob(jobSeed, rounds))
		}
		want, err := run(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want.WAN.Messages == 0 {
			t.Fatalf("%s: no wide-area traffic; differential is vacuous", name)
		}
		sinks := []trace.Sink{nil, trace.NewStream(topo.Procs())}
		got := make([]Result, len(sinks))
		errs := make([]error, len(sinks))
		var wg sync.WaitGroup
		for i, sink := range sinks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = run(sink)
			}()
		}
		wg.Wait()
		for i := range sinks {
			if errs[i] != nil {
				t.Fatalf("%s copy %d: %v", name, i, errs[i])
			}
			if !reflect.DeepEqual(want, got[i]) {
				t.Errorf("%s: parallel copy %d (traced=%v) diverges:\nalone: %+v\ncopy:  %+v",
					name, i, sinks[i] != nil, want, got[i])
			}
		}
	}
}

// TestZeroLatencyWANMultiHop: a zero-latency, zero-overhead wide area is a
// legal configuration on every graph, multi-hop ones included — there is
// no lookahead requirement — and runs deterministically.
func TestZeroLatencyWANMultiHop(t *testing.T) {
	params := network.DefaultParams()
	params.SendOverhead, params.RecvOverhead = 0, 0
	params.IntraLatency, params.WANLatency, params.WANPerMessage = 0, 0, 0
	topo := topology.MustUniform(4, 2)
	for _, spec := range []string{"clique", "ring"} {
		wan, err := wantopo.Parse(spec, topo.Clusters())
		if err != nil {
			t.Fatal(err)
		}
		var first Result
		for i := 0; i < 2; i++ {
			res, err := RunWith(topo, Options{Params: params, WAN: wan, Seed: 42}, randomJob(7, 4))
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			if res.WAN.Messages == 0 {
				t.Fatalf("%s: no wide-area traffic", spec)
			}
			if i == 0 {
				first = res
			} else if !reflect.DeepEqual(first, res) {
				t.Errorf("%s: two zero-latency runs differ", spec)
			}
		}
	}
}
