package core

import (
	"testing"

	"ppamcp/internal/graph"
)

// TestSolveSteadyStateAllocs is the allocation-regression guard for the
// free-list pooling introduced with the packed lane engine: once a
// Session's pools are warm, a Solve must not allocate per-plane or
// per-iteration temporaries — only the Result itself and a handful of
// fixed-size host buffers. The bound has headroom over the measured
// steady state (~160 allocs at n=64) but sits far below the unpooled
// implementation (~1450), so a leak of even one temporary per DP
// iteration trips it.
func TestSolveSteadyStateAllocs(t *testing.T) {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	s, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: first solve grows the pools to the peak live-variable count.
	if _, err := s.Solve(1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.Solve(1); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 400
	if allocs > maxAllocs {
		t.Fatalf("steady-state Session.Solve allocates %.0f objects, want <= %d", allocs, maxAllocs)
	}
}

// TestVirtualSolveSteadyStateAllocs pins the same property for
// block-mapped execution: the packed virtualization engine keeps all
// plane-pass staging in machine-owned scratch, so a warm virtualized
// Solve allocates in the same band as the direct machine — far below the
// per-lane unpack scratch it replaced (which added ~1000 allocations per
// solve at n=64 on m=8). The session runs the machine program
// (ReferenceKernels): a default one takes the fused lane, which never
// reaches the engine.
func TestVirtualSolveSteadyStateAllocs(t *testing.T) {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	s, err := NewSession(g, Options{PhysicalSide: 8, ReferenceKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.Solve(1); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 400
	if allocs > maxAllocs {
		t.Fatalf("steady-state virtualized Session.Solve allocates %.0f objects, want <= %d", allocs, maxAllocs)
	}
}
