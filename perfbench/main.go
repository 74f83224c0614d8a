// Command perfbench is the repository's end-to-end benchmark. Each
// workload regenerates one committed artifact with the shipped CLI
// (cmd/figures or cmd/chaos) at its own defaults, checks the output bytes
// against a reference, and reports wall time, CPU time, set-up time, peak
// memory and the fraction of sweep cells that completed. With -trace 1 it
// instead runs the traced pass (see traced.go), which splits the time
// across the repository's layers.
//
// Run it through perfbench/run.sh from the repository root, which builds
// the CLIs and this program first:
//
//	bash perfbench/run.sh --workload chaos-small-cold --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 7.1, "unit": "s"}, ...}}
//
// attempted counts artifact regenerations, failed those that crashed or
// exited with an unexpected status. A regeneration whose bytes differ from
// the reference makes the run incorrect: it prints correct=false without
// metrics and exits 1. The line before it records the resolved settings
// (worker count, GOMAXPROCS, CPUs, Go version, source identity) and every
// per-regeneration sample.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"twolayer/internal/cliutil"
	"twolayer/internal/core"
)

// runBudget bounds one benchmark invocation, builds excluded: every child
// process is killed and waited for before it expires.
const runBudget = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fset.Int64("seed", core.DefaultSeed, "workload seed: the chaos fault-plan seed (non-negative; 42 is checked against the committed reference)")
	seconds := fset.Int("seconds", 20, "minimum measured time; timed regenerations repeat until it has passed")
	traced := fset.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed end-to-end runs")
	bin := fset.String("bin", ".bench_build/bin", "directory holding the built figures and chaos binaries")
	work := fset.String("work", ".bench_build/perfbench", "directory for working directories, seed hashes and span dumps")
	if err := fset.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seed < 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seed >= 0, -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	b, err := newBench(*bin, *work, *seed)
	if err != nil {
		return fail(err)
	}
	defer b.close()

	var res result
	var info map[string]any
	if *traced == 1 {
		res, info, err = b.traced(w)
	} else {
		res, info, err = b.timed(w, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return fail(err)
	}
	info["workload"] = w.name
	info["seed"] = b.seed
	for k, v := range b.settings() {
		info[k] = v
	}
	line, err := json.Marshal(info)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("perfbench: %s\n", line)

	want := spec.EndToEnd
	if *traced == 1 {
		want = spec.PerLayer
	}
	out := map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   map[string]any{},
	}
	code := 0
	if res.correct && res.failed == 0 {
		m, err := want.render(res.metrics)
		if err != nil {
			return fail(err)
		}
		out["metrics"] = m
	} else {
		out["correct"] = false
		code = 1
	}
	line, err = json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// result is what one benchmark invocation reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

// metricSpec is the declared metric list of BENCHMARK.json, the single
// source of metric names and units.
type metricSpec []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd metricSpec `json:"end_to_end"`
	PerLayer metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// render pairs every declared metric with its measured value; a declared
// metric the run did not measure, or a measured one nobody declared, is a
// benchmark bug.
func (s metricSpec) render(vals map[string]float64) (map[string]any, error) {
	out := make(map[string]any, len(s))
	for _, m := range s {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if len(vals) != len(s) {
		var extra []string
		for k := range vals {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are measured but not declared in BENCHMARK.json", extra)
	}
	return out, nil
}

// cliDefaults are the shared flag defaults of the sweep CLIs, read from the
// flag registrations in internal/cliutil rather than restated here. The
// flags are registered on the process flag set, which this program never
// parses, so each keeps its shipped default.
type cliDefaults struct {
	workers  *int
	sup      *cliutil.Supervision
	analytic *cliutil.Analytic
	wanSpec  *string
}

// bench is the state of one invocation: paths, the seed and the run's
// overall deadline.
type bench struct {
	root, bin, work string
	dir             string // this invocation's scratch directory, removed on close
	seed            int64
	ctx             context.Context
	cancel          context.CancelFunc
	defaults        cliDefaults
	dirs            int
}

func newBench(bin, work string, seed int64) (*bench, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = core.DefaultSeed // as in cmd/chaos, seed 0 selects the default plan
	}
	b := &bench{root: root, bin: bin, work: work, dir: dir, seed: seed}
	b.ctx, b.cancel = context.WithTimeout(context.Background(), runBudget)
	b.defaults = cliDefaults{
		workers:  cliutil.RegisterWorkers(),
		sup:      cliutil.RegisterSupervision(""),
		analytic: cliutil.RegisterAnalytic(),
		wanSpec:  cliutil.RegisterWANTopology(),
	}
	// Resolve -workers exactly as the CLIs do; the in-process passes of the
	// traced run then use the same in-run worker count.
	if err := cliutil.ApplyWorkers(*b.defaults.workers); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) close() {
	b.cancel()
	os.RemoveAll(b.dir)
}

// freshDir returns a new empty working directory: a CLI started there
// finds no run cache, so its shipped default (results/cache, relative to
// the working directory) starts cold.
func (b *bench) freshDir() (string, error) {
	b.dirs++
	d := filepath.Join(b.dir, fmt.Sprintf("w%03d", b.dirs))
	return d, os.Mkdir(d, 0o755)
}

// settings records what the numbers were measured under.
func (b *bench) settings() map[string]any {
	return map[string]any{
		"workers_flag":     *b.defaults.workers,
		"resolved_workers": core.DefaultWorkers(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"go_version":       runtime.Version(),
		"commit":           commit(),
		"source_sha256":    b.sourceHash(),
	}
}

// commit is the VCS revision the binary was built from, when the build saw
// one; benchmark checkouts are not repositories, so source_sha256
// identifies the code there.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash digests the module's Go sources and go.mod (paths and
// contents, in path order), excluding the benchmark's own directories.
func (b *bench) sourceHash() string {
	var files []string
	// The walk skips what it cannot read, so it never fails.
	_ = filepath.WalkDir(b.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(b.root, p)
		if d.IsDir() && rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench" || rel == "results") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || rel == "go.mod") {
			files = append(files, rel)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(b.root, f))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

var errMismatch = errors.New("output differs from its reference")
