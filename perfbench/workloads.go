package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"twolayer/internal/apps"
	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

// A workload regenerates one artifact with a shipped CLI. Only the flags
// that choose the artifact are passed; everything else — the in-run
// worker count, the run cache at results/cache under the working
// directory, tolerances, the wide-area graph — is the CLI's own default,
// so a change of default moves the numbers without a benchmark edit.
type workload struct {
	name string
	tool string
	// args are the flags of one timed regeneration.
	args func(seed int64) []string
	// smoke are the flags of one set-up smoke run: the same artifact at a
	// small scale, in a throwaway directory.
	smoke func(seed int64) []string
	// warm workloads time their regenerations in the directory the
	// set-up filled; cold ones start each regeneration in an empty one.
	warm bool
	// output extracts the artifact from a finished regeneration.
	output func(dir string, p proc) ([]byte, error)
	// reference is the committed artifact the output must equal at seed
	// 42 (or at every seed, for workloads the seed does not touch).
	reference string
	// plans is how many fault plans a timed run cycles through, 0 for
	// workloads the seed does not reach. A plan's cost varies by a few
	// percent from seed to seed, so each run averages several.
	plans int
	// expectExit is the exit status a correct regeneration of out ends
	// with.
	expectExit func(out []byte) int
}

var workloads = map[string]*workload{
	"fig3-paper-cold": {
		name:       "fig3-paper-cold",
		tool:       "figures",
		args:       func(int64) []string { return []string{"-fig3", "-csv", "-scale", "paper"} },
		smoke:      func(int64) []string { return []string{"-fig3", "-csv", "-scale", "tiny", "-apps", "Water"} },
		output:     stdoutOutput,
		reference:  "results/figure3.csv",
		expectExit: func([]byte) int { return cliutil.ExitOK },
	},
	"chaos-small-cold": {
		name: "chaos-small-cold",
		tool: "chaos",
		// -journal puts the sweep under a run policy, so a cell the
		// transport gives up on is a FAILED row, not an aborted sweep.
		// Every supervised chaos sweep journals to this path anyway.
		args: func(seed int64) []string {
			return []string{"-scale", "small", "-seed", strconv.FormatInt(seed, 10), "-journal", "results/chaos.journal"}
		},
		smoke: func(seed int64) []string {
			return []string{"-scale", "tiny", "-drops", "0,0.01", "-outages", "0,100ms",
				"-seed", strconv.FormatInt(seed, 10), "-journal", "results/chaos.journal"}
		},
		output:    fileOutput("results/chaos.csv"),
		reference: "perfbench/testdata/chaos-small-seed42.csv",
		plans:     3,
		expectExit: func(out []byte) int {
			if _, failed := countCells(out); failed > 0 {
				return cliutil.ExitFailed
			}
			return cliutil.ExitOK
		},
	},
	"heatmap-small-warm": {
		name: "heatmap-small-warm",
		tool: "figures",
		args: func(int64) []string { return []string{"-heatmap", "-scale", "small"} },
		// The 2x2 lattice records the same per-variant graphs and
		// baselines the full lattice loads, without its solve.
		smoke:      func(int64) []string { return []string{"-heatmap", "-scale", "small", "-heatmap-size", "2"} },
		warm:       true,
		output:     stdoutOutput,
		reference:  "results/heatmap.csv",
		expectExit: func([]byte) int { return cliutil.ExitOK },
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func stdoutOutput(_ string, p proc) ([]byte, error) { return p.stdout, nil }

func fileOutput(rel string) func(string, proc) ([]byte, error) {
	return func(dir string, _ proc) ([]byte, error) { return os.ReadFile(filepath.Join(dir, rel)) }
}

// countCells counts the data rows of a CSV artifact and those holding a
// FAILED(kind) cell.
func countCells(csv []byte) (cells, failed int) {
	for _, row := range csvRows(csv) {
		cells++
		if slices.ContainsFunc(row, isFailed) {
			failed++
		}
	}
	return cells, failed
}

func isFailed(field string) bool { return strings.HasPrefix(field, "FAILED(") }

// csvRows splits a CSV artifact into its data rows' fields, skipping title
// and header lines (`figures -fig3 -csv` prints a title, then one table per
// panel). The artifacts hold no quoted fields.
func csvRows(csv []byte) [][]string {
	var rows [][]string
	for _, l := range strings.Split(strings.TrimRight(string(csv), "\n"), "\n") {
		if !strings.Contains(l, ",") || strings.HasPrefix(l, "app,") {
			continue
		}
		rows = append(rows, strings.Split(l, ","))
	}
	return rows
}

// planSeed is the seed of a timed run's i-th fault plan: the run's seed
// itself, then seeds planStride apart, so runs at nearby seeds share no
// plans.
func (b *bench) planSeed(i int) int64 { return b.seed + int64(i)*planStride }

const planStride = 1_000_000

// checkOutput compares a regeneration's artifact with the reference, or,
// for a plan other than seed 42, with the first artifact this checkout
// produced for the same plan (kept as a digest under the work directory).
func (b *bench) checkOutput(w *workload, out []byte, plan int64) error {
	if w.plans == 0 || plan == core.DefaultSeed {
		ref, err := os.ReadFile(filepath.Join(b.root, w.reference))
		if err != nil {
			return err
		}
		if !bytes.Equal(out, ref) {
			return fmt.Errorf("%s: %w %s", w.name, errMismatch, w.reference)
		}
		return nil
	}
	sum := digest(out)
	path := filepath.Join(b.work, fmt.Sprintf("%s-seed%d.sha256", w.name, plan))
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != sum {
			return fmt.Errorf("%s: %w: seed %d output changed since %s was written", w.name, errMismatch, plan, path)
		}
		return nil
	}
	return os.WriteFile(path, []byte(sum), 0o644)
}

// The traced pass drives the same cells through the public core calls, one
// at a time, so it rebuilds each study's cell list from the exported axes.
// The list mirrors the study drivers; the traced pass checks every cell's
// result against the CLI's artifact row, so a drift between the two fails
// the run instead of skewing the split.

// cell is one simulated experiment of a study.
type cell struct {
	label string
	x     core.Experiment
}

type variant struct {
	app apps.Info
	opt bool
}

func variants() []variant {
	var vs []variant
	for _, a := range core.Apps() {
		vs = append(vs, variant{a, false})
		if a.HasOptimized {
			vs = append(vs, variant{a, true})
		}
	}
	return vs
}

func variantName(opt bool) string {
	if opt {
		return "optimized"
	}
	return "unoptimized"
}

// baselineCells are the single-cluster runs every study divides by, one
// per application, in core.Apps order.
func baselineCells(scale apps.Scale) []cell {
	var cs []cell
	for _, a := range core.Apps() {
		cs = append(cs, cell{
			label: a.Name + " baseline",
			x: core.Experiment{App: a, Scale: scale, Topo: topology.SingleCluster(topology.DAS().Procs()),
				Params: network.DefaultParams()},
		})
	}
	return cs
}

// fig3Cells are Figure 3's grid cells in CSV row order.
func fig3Cells(wan *wantopo.WAN) []cell {
	var cs []cell
	for _, v := range variants() {
		for _, lat := range core.Latencies {
			for _, bw := range core.Bandwidths {
				cs = append(cs, cell{
					label: fmt.Sprintf("%s (%s) lat=%v bw=%gMB/s", v.app.Name, variantName(v.opt), lat, bw/1e6),
					x: core.Experiment{App: v.app, Scale: apps.Paper, Optimized: v.opt, Topo: topology.DAS(),
						Params: network.DefaultParams().WithWAN(lat, bw), WAN: wan},
				})
			}
		}
	}
	return cs
}

// chaosTopo and chaosParams restate cmd/chaos's -clusters/-percluster and
// -latency/-bandwidth defaults, which live in its main package. The traced
// pass compares its output with the CLI's byte for byte, so a changed
// default there shows up as a mismatch here.
var (
	chaosTopo   = func() *topology.Topology { t, _ := topology.Uniform(4, 8); return t } // 4x8 is always valid
	chaosParams = network.DefaultParams().WithWAN(500*sim.Microsecond, 6e6)
)

// chaosCells are the chaos grid's cells in CSV row order.
func chaosCells(wan *wantopo.WAN, seed int64) []cell {
	var cs []cell
	topo := chaosTopo()
	for _, v := range variants() {
		for _, drop := range core.DefaultChaosDrops {
			for _, outage := range core.DefaultChaosOutages {
				x := core.Experiment{App: v.app, Scale: apps.Small, Optimized: v.opt, Topo: topo,
					Params: chaosParams, WAN: wan}
				x.Faults.DropRate, x.Faults.Seed = drop, seed
				if outage > 0 {
					x.Faults.OutagePeriod, x.Faults.OutageDuration = sim.Second, outage
				}
				cs = append(cs, cell{
					label: fmt.Sprintf("chaos %s (%s) drop=%g outage=%v", v.app.Name, variantName(v.opt), drop, outage),
					x:     x,
				})
			}
		}
	}
	return cs
}

// referenceCells are the analytic recordings, one per variant at the
// reference point, in CSV panel order.
func referenceCells() []cell {
	var cs []cell
	for _, v := range variants() {
		cs = append(cs, cell{
			label: fmt.Sprintf("%s (%s) analytic reference", v.app.Name, variantName(v.opt)),
			x: core.Experiment{App: v.app, Scale: apps.Small, Optimized: v.opt, Topo: topology.DAS(),
				Params: core.ReferenceParams()},
		})
	}
	return cs
}
