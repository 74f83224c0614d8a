package cliutil

import (
	"flag"
	"testing"

	"twolayer/internal/core"
	"twolayer/internal/sim"
)

// TestWorkersDefaultIsSequential: the shipped -workers default is the
// sequential engine, so the sweep pool gives every core its own cell.
func TestWorkersDefaultIsSequential(t *testing.T) {
	if flag.Lookup("workers") == nil { // a rerun (-count) must not redefine it
		RegisterWorkers()
	}
	f := flag.Lookup("workers")
	if f.DefValue != "0" {
		t.Errorf("-workers default %q, want \"0\" (sequential)", f.DefValue)
	}
}

func TestApplyWorkers(t *testing.T) {
	prev := core.DefaultWorkers()
	t.Cleanup(func() { core.SetDefaultWorkers(prev) })
	for _, tc := range []struct {
		flag, want int
	}{
		{0, 0},
		{-1, sim.DefaultWorkers()},
		{3, 3},
	} {
		core.SetDefaultWorkers(7)
		if err := ApplyWorkers(tc.flag); err != nil {
			t.Fatalf("ApplyWorkers(%d): %v", tc.flag, err)
		}
		if got := core.DefaultWorkers(); got != tc.want {
			t.Errorf("ApplyWorkers(%d): core.DefaultWorkers() = %d, want %d", tc.flag, got, tc.want)
		}
	}
	core.SetDefaultWorkers(7)
	if err := ApplyWorkers(-2); err == nil {
		t.Error("ApplyWorkers(-2) accepted")
	}
	if got := core.DefaultWorkers(); got != 7 {
		t.Errorf("rejected ApplyWorkers(-2) changed the default to %d", got)
	}
}
