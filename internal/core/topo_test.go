package core

import (
	"bytes"
	"strings"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
	"twolayer/internal/wantopo"
)

// Wide-area topology contracts: multi-hop runs are pinned by
// MultiHopGoldenRuns and must not be perturbed by observers, the explicit
// clique must be indistinguishable — in results and in cache identity —
// from the implicit default, and the analytic shortcut must refuse graphs
// its replay model cannot see.

// TestMultiHopGoldenRuns pins every multi-hop row: generator families with
// and without fault injection, plus a regime on a torus.
func TestMultiHopGoldenRuns(t *testing.T) {
	for _, g := range MultiHopGoldenRuns {
		g := g
		t.Run(multiHopName(g), func(t *testing.T) {
			t.Parallel()
			res, err := multiHopExperiment(t, g).Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed != g.Elapsed {
				t.Errorf("Elapsed = %d, golden %d", res.Elapsed, g.Elapsed)
			}
			if res.Events != g.Events {
				t.Errorf("Events = %d, golden %d", res.Events, g.Events)
			}
			if res.WAN.Messages != g.WANMsgs {
				t.Errorf("WAN.Messages = %d, golden %d", res.WAN.Messages, g.WANMsgs)
			}
			if res.WAN.Bytes != g.WANBytes {
				t.Errorf("WAN.Bytes = %d, golden %d", res.WAN.Bytes, g.WANBytes)
			}
		})
	}
}

// multiHopFaults is the fault plan of the Faulted MultiHopGoldenRuns rows.
var multiHopFaults = faults.Params{DropRate: 0.02, DupRate: 0.01, Seed: 7}

// multiHopExperiment builds the run a MultiHopGoldenRun pins.
func multiHopExperiment(t *testing.T, g MultiHopGoldenRun) Experiment {
	t.Helper()
	app, err := AppByName("Water")
	if err != nil {
		t.Fatal(err)
	}
	w, err := wantopo.Parse(g.WAN, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := Experiment{
		App: app, Scale: apps.Tiny, Optimized: true,
		Topo:   topology.MustUniform(8, 2),
		Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
		WAN:    w,
	}
	if g.Faulted {
		x.Faults = multiHopFaults
	}
	if g.Regime != "" {
		x.Regime = regime.Params{Spec: g.Regime, Seed: 7}
	}
	return x
}

func multiHopName(g MultiHopGoldenRun) string {
	name := g.WAN
	if g.Faulted {
		name += "/faulted"
	}
	if g.Regime != "" {
		name += "/" + g.Regime
	}
	return name
}

// TestMultiHopDifferential runs one application across every generator
// family, with and without fault injection, and requires deep Result
// equality between a plain run and one observed by a streaming trace sink:
// tracing sees every hop-booked message without moving any of them.
func TestMultiHopDifferential(t *testing.T) {
	app, err := AppByName("Water")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"clique", "ring", "torus:4x2", "circulant:1,3", "fattree:4"} {
		for _, withFaults := range []bool{false, true} {
			spec, withFaults := spec, withFaults
			name := spec
			if withFaults {
				name += "/faulted"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				w, err := wantopo.Parse(spec, 8)
				if err != nil {
					t.Fatal(err)
				}
				run := func(sink trace.Sink) par.Result {
					x := Experiment{App: app, Scale: apps.Tiny, Optimized: true,
						Topo:   topology.MustUniform(8, 2),
						Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
						WAN:    w, Trace: sink}
					if withFaults {
						x.Faults = multiHopFaults
					}
					res, err := x.Run()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				plain := run(nil)
				if plain.WAN.Messages == 0 {
					t.Fatal("run produced no wide-area traffic; differential is vacuous")
				}
				resultsEqual(t, name, plain, run(trace.NewStream(16)))
			})
		}
	}
}

// TestCliqueExplicitMatchesDefault pins the compatibility contract: an
// experiment handed the explicit clique graph produces the same Result and
// the same cache identity as one with no WAN at all, so every pre-topology
// cache entry still addresses the runs it memoized.
func TestCliqueExplicitMatchesDefault(t *testing.T) {
	x := goldenExperiment(t, GoldenRuns[0])
	implicit := x.Key()
	x.WAN = wantopo.Clique(x.Topo.Clusters())
	explicit := x.Key()
	if implicit != explicit {
		t.Fatalf("cache keys differ: implicit %+v, explicit %+v", implicit, explicit)
	}
	if implicit.WANTopo != "" {
		t.Fatalf("clique WANTopo = %q, want empty (preserves on-disk addresses)", implicit.WANTopo)
	}

	cache := NewRunCache()
	def := goldenExperiment(t, GoldenRuns[0])
	want, err := def.RunCached(cache)
	if err != nil {
		t.Fatal(err)
	}
	got, err := x.RunCached(cache)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "explicit clique", want, got)
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want the explicit-clique run served warm (1, 1)", hits, misses)
	}
}

// TestMultiHopRefusals pins the remaining multi-hop limit — the analytic
// recorder's replay model charges one wide-area leg per message, so it must
// refuse rather than diverge — and that Configure hooks run on multi-hop
// graphs: a no-op Configure on a ring equals the plain run.
func TestMultiHopRefusals(t *testing.T) {
	app, err := AppByName("ASP")
	if err != nil {
		t.Fatal(err)
	}
	ring, err := wantopo.Parse("ring", 4)
	if err != nil {
		t.Fatal(err)
	}
	x := Experiment{App: app, Scale: apps.Tiny,
		Topo:   topology.MustUniform(4, 2),
		Params: network.DefaultParams(),
		WAN:    ring,
	}
	plain, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	configured := false
	x.Configure = func(n *network.Network) { configured = true }
	hooked, err := x.Run()
	if err != nil {
		t.Fatalf("Configure on ring: %v", err)
	}
	if !configured {
		t.Error("Configure hook never ran")
	}
	resultsEqual(t, "no-op Configure on ring", plain, hooked)
	if _, err := SolveFigure3(Analytic{}, apps.Tiny, Figure3Options{Apps: []string{"ASP"}, WAN: ring}); err == nil ||
		!strings.Contains(err.Error(), "clique") {
		t.Errorf("analytic on ring: err = %v, want clique refusal", err)
	}
}

// TestTopologyStudySmoke runs a tiny two-family study end to end and checks
// the point grid, the renderer and the CSV writer agree on its contents.
func TestTopologyStudySmoke(t *testing.T) {
	points, err := TopologyStudy(TopologyStudyConfig{
		Scale:      apps.Tiny,
		Apps:       []string{"ASP"},
		Procs:      16,
		Clusters:   []int{4, 8},
		Topologies: []string{"clique", "ring"},
		Cache:      NewRunCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.Failed != "" {
			t.Errorf("%s %s c=%d failed: %s", p.App, p.Topology, p.Clusters, p.Failed)
		}
		if p.Elapsed <= 0 || p.RelPct <= 0 {
			t.Errorf("%s %s c=%d: empty metrics %+v", p.App, p.Topology, p.Clusters, p)
		}
		wantDiam := 1
		if p.Topology == "ring" {
			wantDiam = p.Clusters / 2
		}
		if p.Diameter != wantDiam {
			t.Errorf("%s c=%d diameter %d, want %d", p.Topology, p.Clusters, p.Diameter, wantDiam)
		}
	}
	// The ring pays multi-hop forwarding over fewer links; at equal WAN
	// speed it cannot beat the clique.
	byKey := map[string]TopologyPoint{}
	for _, p := range points {
		byKey[p.Topology+p.Shape] = p
	}
	for _, shape := range []string{"4x4", "8x2"} {
		if r, c := byKey["ring"+shape], byKey["clique"+shape]; r.Elapsed < c.Elapsed {
			t.Errorf("shape %s: ring %v faster than clique %v", shape, r.Elapsed, c.Elapsed)
		}
	}

	out := RenderTopologyStudy(points)
	for _, want := range []string{"clique", "ring", "ASP", "4x4", "8x2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var csv1, csv2 bytes.Buffer
	WriteTopologyCSV(&csv1, points)
	WriteTopologyCSV(&csv2, points)
	if csv1.String() != csv2.String() {
		t.Error("CSV writer is not deterministic")
	}
	if lines := strings.Count(csv1.String(), "\n"); lines != 5 {
		t.Errorf("CSV has %d lines, want 5 (header + 4 points)", lines)
	}
}
