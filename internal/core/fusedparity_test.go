package core

import (
	"reflect"
	"testing"

	"ppamcp/internal/graph"
)

// TestFusedSolveParity pins the contract the default (fused) lane is
// shipped under: for whole solves, every output *and* every cycle counter
// is identical to the interpretive reference path, across graph families,
// sizes and worker counts — so the paper's experiment tables are
// byte-identical regardless of host kernel strategy.
func TestFusedSolveParity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random-16":   graph.GenRandomConnected(16, 0.4, 30, 1),
		"random-33":   graph.GenRandomConnected(33, 0.2, 100, 2),
		"chain-20":    graph.GenChain(20, 3),
		"diameter-24": graph.GenDiameter(24, 11),
		"complete-12": graph.GenComplete(12, 50, 3),
	}
	for name, g := range graphs {
		for _, workers := range []int{1, 4} {
			fused, err := Solve(g, 1, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d fused: %v", name, workers, err)
			}
			ref, err := Solve(g, 1, Options{Workers: workers, ReferenceKernels: true})
			if err != nil {
				t.Fatalf("%s workers=%d reference: %v", name, workers, err)
			}
			if !reflect.DeepEqual(fused, ref) {
				t.Errorf("%s workers=%d: fused and reference solves diverge:\nfused     %+v\nreference %+v",
					name, workers, fused, ref)
			}
		}
	}
}

// TestFusedVirtualSolveParity extends the fused-kernel contract to
// block-mapped execution: with the fused gate now open on healthy
// virtualized fabrics, whole solves on a virt machine must stay
// byte-identical — outputs and every cycle counter — to the interpretive
// reference path, and their answers identical to the direct machine's.
func TestFusedVirtualSolveParity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random-16": graph.GenRandomConnected(16, 0.4, 30, 1),
		"chain-12":  graph.GenChain(12, 3),
		"random-64": graph.GenRandomConnected(64, 0.1, 40, 7),
	}
	for name, g := range graphs {
		for _, phys := range []int{2, 4, 8} {
			if g.N%phys != 0 {
				continue
			}
			for _, workers := range []int{1, 4} {
				opt := Options{Workers: workers, PhysicalSide: phys}
				fused, err := Solve(g, 1, opt)
				if err != nil {
					t.Fatalf("%s phys=%d workers=%d fused: %v", name, phys, workers, err)
				}
				opt.ReferenceKernels = true
				ref, err := Solve(g, 1, opt)
				if err != nil {
					t.Fatalf("%s phys=%d workers=%d reference: %v", name, phys, workers, err)
				}
				if !reflect.DeepEqual(fused, ref) {
					t.Errorf("%s phys=%d workers=%d: fused and reference virtualized solves diverge:\nfused     %+v\nreference %+v",
						name, phys, workers, fused, ref)
				}
				direct, err := Solve(g, 1, Options{Workers: workers, Bits: fused.Bits})
				if err != nil {
					t.Fatalf("%s workers=%d direct: %v", name, workers, err)
				}
				if !reflect.DeepEqual(fused.Result, direct.Result) {
					t.Errorf("%s phys=%d workers=%d: virtualized answers diverge from direct machine",
						name, phys, workers)
				}
			}
		}
	}
}
