package regime

import (
	"strings"
	"testing"

	"twolayer/internal/sim"
	"twolayer/internal/wantopo"
)

func TestValidate(t *testing.T) {
	valid := []Params{
		{},
		{Spec: "diurnal"},
		{Spec: "diurnal:250ms"},
		{Spec: "diurnal:250ms:16", Seed: 9},
		{Spec: "diurnal::16"}, // empty arg keeps the default period
		{Spec: "congestion"},
		{Spec: "congestion:8:6:40ms"},
		{Spec: "churn"},
		{Spec: "churn:2s:500ms"},
		{Spec: "rel"},
		{Spec: "diurnal:1s:8+congestion+churn:1s:100ms+rel", Seed: 3},
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("valid %+v rejected: %v", p, err)
		}
	}
	invalid := []struct {
		p    Params
		want string
	}{
		{Params{Seed: 5}, "seed 5 without a spec"},
		{Params{Spec: "diurnal", Seed: -1}, "negative seed"},
		{Params{Spec: "tides"}, "unknown clause"},
		{Params{Spec: "diurnal+"}, "empty clause"},
		{Params{Spec: "diurnal+diurnal"}, "duplicate diurnal"},
		{Params{Spec: "congestion+congestion:4"}, "duplicate congestion"},
		{Params{Spec: "churn:1s+churn"}, "duplicate churn"},
		{Params{Spec: "diurnal:xyz"}, "bad period"},
		{Params{Spec: "diurnal:-1s"}, "must be positive"},
		{Params{Spec: "diurnal:1s:0.5"}, "must be >= 1"},
		{Params{Spec: "diurnal:1s:NaN"}, "NaN"},
		{Params{Spec: "diurnal:1s:8:extra"}, "too many arguments"},
		{Params{Spec: "congestion:-2"}, "negative congestion flow count"},
		{Params{Spec: "congestion:2:-1"}, "negative congestion intensity"},
		{Params{Spec: "churn:1s:1s"}, "shorter than the period"},
		{Params{Spec: "churn:1s:2s"}, "shorter than the period"},
		{Params{Spec: "rel:1"}, "takes no arguments"},
		// Merely large values must fail validation, not the plan binding.
		{Params{Spec: "congestion:2000000000000000"}, "bad flows"},
		{Params{Spec: "congestion:4097"}, "at most 4096"},
		{Params{Spec: "congestion:4:1e300"}, "bad intensity"},
		{Params{Spec: "congestion:4:4:25h"}, "at most 24h"},
		{Params{Spec: "diurnal:1s:Inf"}, "bad factor"},
		{Params{Spec: "churn:1000000h"}, "bad period"},
		{Params{Spec: "churn:1s:25h"}, "at most 24h"},
	}
	for _, tc := range invalid {
		err := tc.p.Validate()
		if err == nil {
			t.Errorf("invalid %+v accepted", tc.p)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %q does not mention %q", tc.p, err, tc.want)
		}
	}
}

func TestPlanProperties(t *testing.T) {
	pl, err := NewPlan(Params{Spec: "churn:1s:250ms+rel", Seed: 4}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.HasChurn() || !pl.NeedsTransport() {
		t.Error("churn plan must report churn and require the transport")
	}
	pl, err = NewPlan(Params{Spec: "diurnal"}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pl.HasChurn() || pl.NeedsTransport() {
		t.Error("pure diurnal plan requires no transport")
	}
	pl, err = NewPlan(Params{Spec: "rel"}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.NeedsTransport() {
		t.Error("rel clause must force the transport")
	}
	if _, err := NewPlan(Params{}, nil, 4); err == nil {
		t.Error("empty spec compiled into a plan")
	}
}

// TestEdgeScaleDegradationOnly: the calm run is a floor only if every
// regime only ever slows links down — latency scale >= 1 and
// bandwidth scale in (0, 1] at every time, on every edge, through negative
// times included (pre-run probes clamp to 0).
func TestEdgeScaleDegradationOnly(t *testing.T) {
	specs := []string{
		"diurnal:100ms:8",
		"congestion:16:6:70ms",
		"diurnal:300ms:4+congestion:8:2:110ms",
	}
	for _, spec := range specs {
		pl, err := NewPlan(Params{Spec: spec, Seed: 11}, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		w := wantopo.Clique(4)
		for e := 0; e < w.NumEdges(); e++ {
			for _, at := range []sim.Time{-sim.Second, 0, 1, 12345678, 50 * sim.Millisecond,
				sim.Second, 3*sim.Second + 7} {
				ls, bs := pl.EdgeScale(e, at)
				if ls < 1 {
					t.Fatalf("%s: edge %d at %v: latency scale %g < 1", spec, e, at, ls)
				}
				if bs <= 0 || bs > 1 {
					t.Fatalf("%s: edge %d at %v: bandwidth scale %g outside (0,1]", spec, e, at, bs)
				}
			}
		}
	}
}

// TestDiurnalShape: the triangle wave touches its configured factor at the
// cycle midpoint and returns to 1 at the edges (phase folded out).
func TestDiurnalShape(t *testing.T) {
	pl, err := NewPlan(Params{Spec: "diurnal:100ms:8"}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	period := 100 * sim.Millisecond
	edge := -pl.diurnalPhase
	for edge < 0 {
		edge += period
	}
	if ls, _ := pl.EdgeScale(0, edge); ls > 1.001 {
		t.Errorf("cycle edge scale %g, want ~1", ls)
	}
	if ls, _ := pl.EdgeScale(0, edge+period/2); ls < 7.9 {
		t.Errorf("cycle midpoint scale %g, want ~8", ls)
	}
}

// TestChurnDownUpConsistency: at most one cluster is down at a time, down
// intervals respect the configured duty cycle, and UpAt names a rejoin time
// that is actually up and within the down window's remainder.
func TestChurnDownUpConsistency(t *testing.T) {
	const clusters = 4
	down := 250 * sim.Millisecond
	pl, err := NewPlan(Params{Spec: "churn:1s:250ms", Seed: 2}, nil, clusters)
	if err != nil {
		t.Fatal(err)
	}
	sawDown := false
	for step := sim.Time(0); step < 10*sim.Second; step += 7 * sim.Millisecond {
		nDown := 0
		for c := 0; c < clusters; c++ {
			if !pl.ClusterDown(c, step) {
				if up := pl.UpAt(c, step); up != step {
					t.Fatalf("UpAt moved an up cluster: %v -> %v", step, up)
				}
				continue
			}
			nDown++
			sawDown = true
			up := pl.UpAt(c, step)
			if up <= step {
				t.Fatalf("cluster %d down at %v but UpAt %v not in the future", c, step, up)
			}
			if up-step > down {
				t.Fatalf("cluster %d down at %v until %v: longer than the %v window", c, step, up, down)
			}
			if pl.ClusterDown(c, up) {
				t.Fatalf("cluster %d still down at its own rejoin time %v", c, up)
			}
		}
		if nDown > 1 {
			t.Fatalf("%d clusters down at once at %v", nDown, step)
		}
	}
	if !sawDown {
		t.Error("no cluster ever churned out over 10 virtual seconds")
	}
	// A single cluster has no one to talk to and is never churned.
	solo, err := NewPlan(Params{Spec: "churn:1s:250ms", Seed: 2}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for step := sim.Time(0); step < 3*sim.Second; step += 11 * sim.Millisecond {
		if solo.ClusterDown(0, step) {
			t.Fatal("single-cluster machine churned itself out")
		}
	}
}

// TestChurnVictimRotates: over many cycles the seeded victim choice must
// spread across clusters, not pin one site forever.
func TestChurnVictimRotates(t *testing.T) {
	pl, err := NewPlan(Params{Spec: "churn:1s:250ms", Seed: 6}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for k := int64(0); k < 64; k++ {
		v := pl.churnVictim(k)
		if v < 0 || v >= 4 {
			t.Fatalf("victim %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 4 {
		t.Errorf("64 cycles churned only clusters %v", seen)
	}
}

// TestCongestionFlowsWellFormed: seeded flows never loop back to their own
// cluster, and every flow is routed over at least one wide-area edge.
func TestCongestionFlowsWellFormed(t *testing.T) {
	w, err := wantopo.Parse("ring", 8)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlan(Params{Spec: "congestion:24:4:80ms", Seed: 5}, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.flows) != 24 {
		t.Fatalf("asked for 24 flows, got %d", len(pl.flows))
	}
	routed := 0
	for _, ef := range pl.edgeFlows {
		routed += len(ef)
	}
	if routed == 0 {
		t.Fatal("no flow loads any edge")
	}
	for i, f := range pl.flows {
		if f.src == f.dst {
			t.Errorf("flow %d loops on cluster %d", i, f.src)
		}
	}
}

// TestDeterminism: equal parameters produce bit-identical plans — same
// phases, same victims, same scales at every probed time; a different seed
// moves at least something.
func TestDeterminism(t *testing.T) {
	mk := func(seed int64) *Plan {
		pl, err := NewPlan(Params{Spec: "diurnal:90ms:8+congestion:8:4:70ms+churn:400ms:100ms", Seed: seed}, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	a, b := mk(7), mk(7)
	other := mk(8)
	diverged := false
	for _, at := range []sim.Time{0, 33 * sim.Millisecond, 217 * sim.Millisecond, 3 * sim.Second} {
		for e := 0; e < 6; e++ {
			al, ab := a.EdgeScale(e, at)
			bl, bb := b.EdgeScale(e, at)
			if al != bl || ab != bb {
				t.Fatalf("same seed diverged on edge %d at %v", e, at)
			}
			if ol, ob := other.EdgeScale(e, at); ol != al || ob != ab {
				diverged = true
			}
		}
		for c := 0; c < 4; c++ {
			if a.ClusterDown(c, at) != b.ClusterDown(c, at) || a.UpAt(c, at) != b.UpAt(c, at) {
				t.Fatalf("same seed diverged on churn for cluster %d at %v", c, at)
			}
		}
	}
	if !diverged {
		t.Error("seeds 7 and 8 produced identical conditions everywhere probed")
	}
}

// FuzzRegimeSpec: any spec Validate accepts must compile into a plan on a
// clique and on a multi-hop ring without panicking or allocating without
// bound, and the plan must answer queries within the degradation-only
// contract.
func FuzzRegimeSpec(f *testing.F) {
	for _, s := range []string{
		"congestion:2000000000000000", // once passed Validate, then panicked in NewPlan
		"diurnal:250ms:16",
		"congestion:8:6:40ms",
		"churn:2s:500ms",
		"rel",
		"diurnal:1s:8+congestion+churn:1s:100ms+rel",
	} {
		f.Add(s)
	}
	ring, err := wantopo.Ring(8)
	if err != nil {
		f.Fatal(err)
	}
	graphs := []struct {
		w        *wantopo.WAN
		clusters int
	}{{wantopo.Clique(4), 4}, {ring, 8}}
	f.Fuzz(func(t *testing.T, spec string) {
		p := Params{Spec: spec, Seed: 1}
		if p.Validate() != nil {
			return
		}
		for _, g := range graphs {
			pl, err := NewPlan(p, g.w, g.clusters)
			if err != nil {
				t.Fatalf("%q passed Validate but NewPlan on %s failed: %v", spec, g.w.Spec(), err)
			}
			for _, at := range []sim.Time{0, 3 * sim.Millisecond, 12 * 3600 * sim.Second} {
				for e := 0; e < g.w.NumEdges(); e++ {
					if lat, bw := pl.EdgeScale(e, at); !(lat >= 1) || !(bw > 0 && bw <= 1) {
						t.Fatalf("%q on %s: edge %d at %v scales lat %g bw %g", spec, g.w.Spec(), e, at, lat, bw)
					}
				}
				for c := 0; c < g.clusters; c++ {
					if up := pl.UpAt(c, at); up < at {
						t.Fatalf("%q on %s: cluster %d down at %v rejoins earlier, at %v", spec, g.w.Spec(), c, at, up)
					}
				}
			}
		}
	})
}
