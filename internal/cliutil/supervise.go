// Package cliutil holds the run-supervision plumbing shared by the sweep
// command-line tools (sweep, chaos, figures, bench): the common flags that
// configure budgets, deadlines and crash-resume journals; the translation
// of those flags into a core.RunPolicy; failure reporting; and atomic
// output writes.
//
// The tools share one exit-code convention:
//
//	0  every sweep cell completed
//	1  harness error (I/O failure, internal error — nothing ran to plan)
//	2  flag misuse
//	3  the sweep completed but some cells FAILED under supervision
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"twolayer/internal/core"
	"twolayer/internal/sim"
)

// Exit codes of the shared convention.
const (
	ExitOK      = 0
	ExitHarness = 1
	ExitUsage   = 2
	ExitFailed  = 3
)

// Supervision collects the shared supervision flag values after parsing.
type Supervision struct {
	Deadline       time.Duration
	MaxEvents      int64
	MaxVirtual     time.Duration
	ProgressWindow int64
	Retries        int
	JournalPath    string
	Resume         bool
}

// RegisterSupervision installs the shared supervision flags on the process
// flag set. defaultJournal seeds -journal ("" leaves journaling off unless
// requested); tools that derive the path from another flag pass "" and
// fill JournalPath after flag.Parse.
func RegisterSupervision(defaultJournal string) *Supervision {
	s := &Supervision{}
	flag.DurationVar(&s.Deadline, "deadline", 0,
		"wall-clock budget for the whole sweep; cells cut off by it are recorded as FAILED(deadline) (0 = none)")
	flag.Int64Var(&s.MaxEvents, "max-events", 0,
		"per-run simulation event budget; overruns become FAILED(event-budget) cells (0 = unlimited)")
	flag.DurationVar(&s.MaxVirtual, "max-vtime", 0,
		"per-run virtual-time budget; overruns become FAILED(time-budget) cells (0 = unlimited)")
	flag.Int64Var(&s.ProgressWindow, "progress-window", 0,
		"livelock watchdog: kill a run after this many events without application progress, as FAILED(livelock) (0 = off)")
	flag.IntVar(&s.Retries, "retries", 1,
		"retry attempts for transient (wall-clock deadline) cell failures")
	flag.StringVar(&s.JournalPath, "journal", defaultJournal,
		"append-only sweep journal recording completed cells for crash-resume (empty = no journal)")
	flag.BoolVar(&s.Resume, "resume", false,
		"recover completed cells from the journal instead of re-running them")
	return s
}

// Policy builds the core.RunPolicy the parsed flags describe. With every
// flag at its zero default it returns a nil policy — no supervision, the
// historical abort-on-error behaviour. The returned cleanup releases the
// deadline context and closes the journal; call it before exiting (also on
// the error path).
func (s *Supervision) Policy() (*core.RunPolicy, func(), error) {
	cleanup := func() {}
	if s.Resume && s.JournalPath == "" {
		return nil, cleanup, fmt.Errorf("-resume needs a -journal path")
	}
	if s.Deadline < 0 || s.MaxEvents < 0 || s.MaxVirtual < 0 || s.ProgressWindow < 0 {
		return nil, cleanup, fmt.Errorf("supervision budgets must be non-negative")
	}
	if s.Deadline <= 0 && s.MaxEvents <= 0 && s.MaxVirtual <= 0 &&
		s.ProgressWindow <= 0 && s.JournalPath == "" {
		return nil, cleanup, nil
	}
	pol := &core.RunPolicy{
		Budget: sim.Budget{
			MaxEvents:      uint64(s.MaxEvents),
			MaxVirtualTime: sim.Time(s.MaxVirtual.Nanoseconds()),
			ProgressWindow: uint64(s.ProgressWindow),
		},
		Retries: s.Retries,
	}
	cancel := func() {}
	if s.Deadline > 0 {
		pol.Ctx, cancel = context.WithTimeout(context.Background(), s.Deadline)
	}
	if s.JournalPath != "" {
		j, err := core.OpenJournal(s.JournalPath, s.Resume)
		if err != nil {
			cancel()
			return nil, cleanup, err
		}
		pol.Journal = j
		cleanup = func() { j.Close(); cancel() }
	} else {
		cleanup = cancel
	}
	return pol, cleanup, nil
}

// ReportOutcome renders the policy's resume and failure summary to w and
// returns the exit code encoding the sweep outcome: ExitOK when every cell
// completed, ExitFailed when some were recorded as FAILED. A nil policy is
// always ExitOK. The first failure's full diagnostic dump (per-process
// block reasons, mailbox depths, reliable-channel state) is included; the
// remaining failures get one line each.
func ReportOutcome(w io.Writer, tool string, pol *core.RunPolicy) int {
	if skipped := pol.Skipped(); skipped > 0 {
		fmt.Fprintf(w, "%s: resumed %d completed cell(s) from the journal\n", tool, skipped)
	}
	fails := pol.Failures()
	if len(fails) == 0 {
		return ExitOK
	}
	fmt.Fprintf(w, "%s: %d sweep cell(s) FAILED under supervision:\n", tool, len(fails))
	for _, f := range fails {
		fmt.Fprintf(w, "  %s after %d attempt(s)\n", f, f.Attempts)
	}
	var re *sim.RunError
	if errors.As(fails[0].Err, &re) {
		fmt.Fprintf(w, "\ndiagnostics of the first failure (%s):\n%s", fails[0].Label, re.Report())
	}
	return ExitFailed
}

// ReportCache prints the run cache's effectiveness counters to w — stderr
// in the tools, since stdout must stay byte-identical across reruns and the
// counters do not. An unused or nil cache prints nothing.
func ReportCache(w io.Writer, c *core.RunCache) {
	if c == nil {
		return
	}
	s := c.CacheStats()
	graphs := s.GraphHits + s.GraphDiskHits + s.GraphMisses
	if s.Hits+s.DiskHits+s.Misses+graphs == 0 {
		return
	}
	fmt.Fprintf(w, "run cache: %d memory hits, %d disk hits, %d simulated, %d stale",
		s.Hits, s.DiskHits, s.Misses, s.Stale)
	if graphs > 0 {
		fmt.Fprintf(w, "; graphs: %d memory hits, %d disk hits, %d recorded",
			s.GraphHits, s.GraphDiskHits, s.GraphMisses)
	}
	fmt.Fprintln(w)
}

// WriteFileAtomic writes one output artifact through a temp file and a
// rename, creating parent directories as needed. A crash or a concurrent
// writer can never leave a half-written file at path: readers observe the
// old content or the new, nothing in between.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
