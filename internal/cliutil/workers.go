package cliutil

import (
	"flag"
	"fmt"

	"twolayer/internal/core"
	"twolayer/internal/sim"
)

// RegisterWorkers installs a -workers flag on the process flag set. Every
// run executes on one sequential kernel, so the value selects nothing.
//
// Deprecated: no engine reads it; kept until perfbench stops referencing it.
func RegisterWorkers() *int {
	return flag.Int("workers", 0,
		"ignored: every run executes on one sequential kernel (-1 = auto, 0, or n)")
}

// ApplyWorkers validates a -workers value and stores it with
// core.SetDefaultWorkers: -1 resolves to sim.DefaultWorkers, 0 and positive
// values are taken as-is, anything below -1 is flag misuse.
//
// Deprecated: no engine reads it; kept until perfbench stops referencing it.
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
