package par_test

import (
	"testing"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
)

// TestSolveWorkerAllocParity pins the fix for the workers>1 allocation
// regression: fanning a solve out over the persistent ring worker pool
// must not allocate per transaction (the old dispatcher heap-allocated one
// closure per ring chunk per bus transaction, ~17x the serial alloc
// count on the benchmark graph). Allocations with workers=4 must stay
// within 2x of workers=1. The solves run the machine program
// (ReferenceKernels): the default fused lane issues no bus transaction,
// so it never reaches the pool.
func TestSolveWorkerAllocParity(t *testing.T) {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	measure := func(workers int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := core.Solve(g, 1, core.Options{Workers: workers, ReferenceKernels: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	serial := measure(1)
	pooled := measure(4)
	if pooled > 2*serial {
		t.Fatalf("Solve allocations: workers=4 %.0f vs workers=1 %.0f (>2x)", pooled, serial)
	}
}
