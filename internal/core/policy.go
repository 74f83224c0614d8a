package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// RunPolicy is the sweep supervision layer: it decides how much a single
// cell may cost (event/virtual-time budgets, a wall-clock deadline via
// Ctx), turns supervised kills into per-cell failures instead of sweep
// aborts, retries the transient ones, and — when a Journal is attached —
// makes the sweep crash-resumable.
//
// A nil *RunPolicy is valid everywhere one is accepted and means "no
// supervision": cells run unbudgeted and any error aborts the sweep, the
// historical behaviour.
type RunPolicy struct {
	// Budget bounds each cell's simulation (see sim.Budget). Zero fields
	// are unlimited.
	Budget sim.Budget
	// Ctx, if non-nil, imposes a wall-clock deadline on the whole sweep:
	// when it expires, in-flight cells stop with a deadline failure and
	// remaining cells fail fast. Deadline kills are the only
	// machine-dependent failure, so they are also the only transient one.
	Ctx context.Context
	// Retries is how many times a transient (deadline) failure is retried
	// before the cell is recorded as FAILED. Deterministic kills —
	// deadlock, livelock, budget overrun, retry-cap — would fail
	// identically every time and are never retried.
	Retries int
	// RetryBackoff is the base wall-clock pause before a retry, doubled
	// per attempt with a deterministic per-cell spread (default 250 ms).
	RetryBackoff time.Duration
	// Journal, if non-nil, records every completed cell and serves cells
	// completed by an earlier, interrupted sweep.
	Journal *Journal

	mu       sync.Mutex
	failures []CellFailure
	skipped  int
}

// CellFailure is one sweep cell that a policy gave up on. The sweep itself
// keeps going; its output marks the cell FAILED(Kind).
type CellFailure struct {
	// Label names the cell (application, variant, sweep coordinates).
	Label string
	// Kind is the stable machine-readable reason: one of the sim stop
	// names ("deadlock", "livelock", "event-budget", "time-budget",
	// "deadline") or "retry-cap" for an exhausted reliable channel.
	Kind string
	// Attempts counts how many times the cell ran (1 + retries).
	Attempts int
	// Err is the final underlying error, typically a *sim.RunError whose
	// Report method renders the full diagnostic dump.
	Err error
}

func (f CellFailure) String() string {
	return fmt.Sprintf("%s: FAILED(%s)", f.Label, f.Kind)
}

// FailedCell renders the FAILED(reason) marker used for failed cells in
// CSV and table output.
func FailedCell(kind string) string { return "FAILED(" + kind + ")" }

// classifyCellError decides whether an experiment error is a per-cell
// failure (the cell is marked FAILED and the sweep continues) or a harness
// error (the sweep aborts). Transient reports whether a retry could
// plausibly succeed — true only for wall-clock deadline kills, since every
// other supervised stop is deterministic.
func classifyCellError(err error) (kind string, cell, transient bool) {
	// A failed reliable channel surfaces joined with the secondary
	// deadlock it causes, so the transport error is checked first: the
	// root cause names the cell, not the symptom.
	var te *par.TransportError
	if errors.As(err, &te) {
		return "retry-cap", true, false
	}
	var re *sim.RunError
	if errors.As(err, &re) {
		return re.Kind.String(), true, re.Kind == sim.StopDeadline
	}
	return "", false, false
}

// Failures returns the cells this policy recorded as FAILED, in completion
// order. Sweeps using the same policy share the list.
func (p *RunPolicy) Failures() []CellFailure {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]CellFailure(nil), p.failures...)
}

// Skipped reports how many cells were served from the journal instead of
// being simulated (the resume counter).
func (p *RunPolicy) Skipped() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.skipped
}

func (p *RunPolicy) noteFailure(f CellFailure) {
	p.mu.Lock()
	p.failures = append(p.failures, f)
	p.mu.Unlock()
}

func (p *RunPolicy) noteSkip() {
	p.mu.Lock()
	p.skipped++
	p.mu.Unlock()
}

// expired reports whether the sweep-wide deadline has already passed.
func (p *RunPolicy) expired() bool {
	return p.Ctx != nil && p.Ctx.Err() != nil
}

// backoff pauses before a retry: RetryBackoff doubled per attempt, capped,
// plus a deterministic per-cell spread so a sweep's worth of retries does
// not stampede in lockstep. The pause is cut short if the sweep deadline
// expires.
func (p *RunPolicy) backoff(label string, attempt int) {
	base := p.RetryBackoff
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	d := base << uint(attempt)
	if limit := 8 * base; d > limit {
		d = limit
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", label, attempt)
	d += time.Duration(h.Sum64() % uint64(d/2+1))
	if p.Ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.Ctx.Done():
	}
}

// FailureReport renders the failure's full diagnostic dump — per-process
// block reasons, mailbox depths, reliable-channel windows — when the
// underlying error carries one (a *sim.RunError); "" otherwise.
func FailureReport(f *CellFailure) string {
	var re *sim.RunError
	if f != nil && errors.As(f.Err, &re) {
		return re.Report()
	}
	return ""
}

// run executes one sweep cell under the policy. Exactly one of the three
// returns is meaningful: a result (cell succeeded, possibly served from
// the journal), a *CellFailure (cell FAILED but the sweep continues), or
// an error (harness failure, abort the sweep). A nil policy degrades to a
// plain cached run with no failure handling.
func (p *RunPolicy) run(label string, x Experiment, cache *RunCache) (par.Result, *CellFailure, error) {
	if p == nil {
		res, err := x.RunCached(cache)
		return res, nil, err
	}
	if p.Journal != nil && x.cacheable() {
		if res, ok := p.Journal.Lookup(x.Key()); ok {
			p.noteSkip()
			return res, nil, nil
		}
	}
	x.Budget = p.Budget
	x.Ctx = p.Ctx
	var kind string
	var lastErr error
	attempts := 0
	for {
		res, err := x.RunCached(cache)
		attempts++
		if err == nil {
			if p.Journal != nil && x.cacheable() {
				p.Journal.Record(x.Key(), res)
			}
			return res, nil, nil
		}
		var cell, transient bool
		kind, cell, transient = classifyCellError(err)
		if !cell {
			return par.Result{}, nil, err
		}
		lastErr = err
		if !transient || attempts > p.Retries || p.expired() {
			break
		}
		// The cache memoized the transient error; drop it so the retry
		// actually re-runs instead of replaying the memoized failure.
		cache.forget(x.Key())
		p.backoff(label, attempts-1)
	}
	f := CellFailure{Label: label, Kind: kind, Attempts: attempts, Err: lastErr}
	p.noteFailure(f)
	return par.Result{}, &f, nil
}
