package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"twolayer/internal/cliutil"
)

// proc is one finished CLI process. steal is the hypervisor steal time the
// machine's CPUs accrued while it ran.
type proc struct {
	wall, cpu, steal time.Duration
	rssMB            float64
	exit             int
	stdout, stderr   []byte
}

// exec runs a built CLI in dir and waits for it. A process still running
// at the invocation's deadline is killed (and waited for) and reported as
// an error.
func (b *bench) exec(dir, tool string, args ...string) (proc, error) {
	cmd := exec.CommandContext(b.ctx, filepath.Join(b.bin, tool), args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	steal0 := stealTime()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	steal := stealTime() - steal0
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return proc{}, fmt.Errorf("%s: %w", tool, err)
	}
	if b.ctx.Err() != nil {
		return proc{}, fmt.Errorf("%s: %w", tool, b.ctx.Err())
	}
	ps := cmd.ProcessState
	p := proc{
		wall:   wall,
		steal:  steal,
		cpu:    ps.UserTime() + ps.SystemTime(),
		exit:   ps.ExitCode(),
		stdout: stdout.Bytes(),
		stderr: stderr.Bytes(),
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return p, nil
}

// unstolen scales d, a span the process ran in, by the share of the CPU
// time it asked for that the hypervisor actually granted: on a virtual
// machine whose CPUs are preempted by other tenants (the steal column of
// /proc/stat), wall time measures the neighbours as much as the program. A
// process running on p CPUs on average loses steal/p of wall time, so with
// p = cpu/unstolen wall the unstolen wall is wall * cpu/(cpu+steal). Without
// steal it is the wall time itself.
func (p proc) unstolen(d time.Duration) time.Duration {
	if p.steal <= 0 || p.cpu <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(p.cpu) / float64(p.cpu+p.steal))
}

// stealTime returns the steal time all CPUs accrued since boot, or 0 where
// the kernel does not report it.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// regen is one regeneration of a workload's artifact in dir under the
// given fault-plan seed, checked: it returns the artifact, or an error
// wrapping errMismatch when the output differs from its reference, or
// errUnexpectedExit.
func (b *bench) regen(w *workload, dir string, plan int64) (proc, []byte, error) {
	p, err := b.exec(dir, w.tool, w.args(plan)...)
	if err != nil {
		return p, nil, err
	}
	out, err := w.output(dir, p)
	if err != nil {
		return p, nil, fmt.Errorf("%w: %s exited %d without its artifact: %v\n%s", errUnexpectedExit, w.tool, p.exit, err, p.stderr)
	}
	if want := w.expectExit(out); p.exit != want {
		return p, out, fmt.Errorf("%w: %s exited %d, want %d\n%s", errUnexpectedExit, w.tool, p.exit, want, p.stderr)
	}
	return p, out, b.checkOutput(w, out, plan)
}

var errUnexpectedExit = errors.New("unexpected exit")

// setup prepares one regeneration: a fresh working directory plus a smoke
// run of the same CLI on a small version of the artifact. For the warm
// workload the smoke run is the cold fill and its directory is the one the
// timed regenerations use; cold workloads run the smoke in a throwaway
// directory and return a fresh, empty one.
func (b *bench) setup(w *workload) (string, time.Duration, error) {
	start := time.Now()
	dir, err := b.freshDir()
	if err != nil {
		return "", 0, err
	}
	p, err := b.exec(dir, w.tool, w.smoke(b.seed)...)
	if err != nil {
		return "", 0, err
	}
	if p.exit != cliutil.ExitOK && p.exit != cliutil.ExitFailed {
		return "", 0, fmt.Errorf("set-up: %s exited %d\n%s", w.tool, p.exit, p.stderr)
	}
	took := p.unstolen(time.Since(start))
	if !w.warm {
		if dir, err = b.freshDir(); err != nil {
			return "", 0, err
		}
	}
	return dir, took, nil
}

// setupRounds is how many times a timed run sets up; it reports the median.
const setupRounds = 5

// timed is the end-to-end run: set up setupRounds times, then regenerate the
// artifact until the measured time has passed and every fault plan ran
// (at least once), each cold regeneration in a fresh directory. It reports
// the median of every per-regeneration metric.
func (b *bench) timed(w *workload, seconds time.Duration) (result, map[string]any, error) {
	var setups []float64
	var dir string
	for range setupRounds {
		d, took, err := b.setup(w)
		if err != nil {
			return result{}, nil, err
		}
		dir = d
		setups = append(setups, took.Seconds())
	}
	res := result{correct: true}
	var walls, rawWalls, steals, cpus, rss, done []float64
	var plans []int64
	start := time.Now()
	for i := 0; i < max(1, w.plans) || time.Since(start) < seconds; i++ {
		if !w.warm && i > 0 {
			var err error
			if dir, err = b.freshDir(); err != nil {
				return result{}, nil, err
			}
		}
		res.attempted++
		plan := b.planSeed(i % max(1, w.plans))
		plans = append(plans, plan)
		p, out, err := b.regen(w, dir, plan)
		if err != nil {
			switch {
			case errors.Is(err, errUnexpectedExit):
				res.failed++
			case errors.Is(err, errMismatch):
				res.correct = false
			default:
				return result{}, nil, err
			}
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			break
		}
		cells, failed := countCells(out)
		walls = append(walls, p.unstolen(p.wall).Seconds())
		rawWalls = append(rawWalls, p.wall.Seconds())
		steals = append(steals, p.steal.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, p.rssMB)
		done = append(done, 1-float64(failed)/float64(cells))
	}
	res.metrics = map[string]float64{
		"wall_s":         median(walls),
		"cpu_s":          median(cpus),
		"setup_s":        median(setups),
		"completed_frac": median(done),
	}
	info := map[string]any{
		"setup_s": setups, "wall_s": walls, "raw_wall_s": rawWalls, "steal_s": steals,
		"cpu_s": cpus, "peak_rss_mb": rss, "completed_frac": done, "plan_seeds": plans,
	}
	return res, info, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
