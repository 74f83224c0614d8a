package cliutil

import (
	"flag"
	"fmt"

	"twolayer/internal/core"
	"twolayer/internal/sim"
)

// RegisterWorkers installs the shared -workers flag on the process flag
// set: the in-run worker count for cluster-parallel (PDES) execution.
// Parse flags, then pass the value to ApplyWorkers.
func RegisterWorkers() *int {
	return flag.Int("workers", 0,
		"in-run workers for cluster-parallel execution: 0 = sequential "+
			"(default; the sweep pool runs one cell per core), -1 = auto "+
			"(GOMAXPROCS, capped), n = n windowed workers per cell, with the "+
			"pool running about GOMAXPROCS/n cells at once")
}

// ApplyWorkers validates the parsed -workers value and installs it as the
// process-wide in-run default (core.SetDefaultWorkers): -1 resolves to the
// machine-derived sim.DefaultWorkers, 0 forces sequential execution, and
// positive values are taken as-is. Anything below -1 is flag misuse — the
// caller maps the error to ExitUsage. Results never depend on the value
// (the parallel engine is bit-identical to sequential at any worker
// count); only wall-clock time and scheduling do, which is also why the
// persistent run cache ignores it.
func ApplyWorkers(n int) error {
	if n < -1 {
		return fmt.Errorf("-workers must be -1 (auto), 0 (sequential) or positive, got %d", n)
	}
	if n == -1 {
		n = sim.DefaultWorkers()
	}
	core.SetDefaultWorkers(n)
	return nil
}
