package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ppamcp/internal/graph"
)

func TestPredictedCostModelSwitchOnly(t *testing.T) {
	// Switch-only: zero wired-OR; bus per iteration = two minima at 2h+2
	// each plus the statement-10 broadcast and two diagonal broadcasts.
	m := PredictedCost(5, 8, 3, false, false, true)
	if m.WiredOrCycles != 0 {
		t.Errorf("switch-only model has wired-OR cycles: %v", m)
	}
	wantBus := int64(3)*(2*(2*8+2)+3) + 2
	if m.BusCycles != wantBus {
		t.Errorf("bus = %d, want %d", m.BusCycles, wantBus)
	}
	if m.GlobalOrOps != 3 {
		t.Errorf("globalOR = %d, want 3", m.GlobalOrOps)
	}
	if m.PEOps != 25*m.Instructions {
		t.Errorf("PEOps = %d, want n²·Instructions = %d", m.PEOps, 25*m.Instructions)
	}
}

// TestPredictedCostModelMatchesMeasuredSwitchOnly closes the loop between
// the analytical model and the simulator for the switch-only bus.
func TestPredictedCostModelMatchesMeasuredSwitchOnly(t *testing.T) {
	g := graph.GenDiameter(12, 5)
	r := mustSolve(t, g, 0, Options{Bits: 10, SwitchOnlyBus: true})
	if want := PredictedCost(12, 10, r.Iterations, false, false, true); r.Metrics != want {
		t.Errorf("measured %v, model %v", r.Metrics, want)
	}
}

// randomTieGraph returns a random n-vertex digraph with weights drawn from
// [0, maxW]: zero-weight edges and equal-cost ties are common.
func randomTieGraph(rng *rand.Rand, n int, density float64, maxW int64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				g.SetEdge(i, j, rng.Int63n(maxW+1))
			}
		}
	}
	return g
}

// TestPredictedCostMatchesMeasured pins the closed-form cost schedule to
// the simulator: every Metrics field of every solve equals PredictedCost
// at the measured Iterations — cold solves on both bus models and both
// init variants, and warm Resolves after random weight updates — on the
// machine program (ReferenceKernels) and on default sessions, whose fused
// lane charges the same schedule.
func TestPredictedCostMatchesMeasured(t *testing.T) {
	lanes := []Options{
		{},
		{ReferenceKernels: true},
		{ReferenceKernels: true, SwitchOnlyBus: true},
		{ReferenceKernels: true, PaperInit: true},
		{ReferenceKernels: true, PaperInit: true, SwitchOnlyBus: true},
		{SwitchOnlyBus: true},
	}
	rng := rand.New(rand.NewSource(21))
	ctx := context.Background()
	warmSolves := make(map[Options]int)
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(11)
		g := randomTieGraph(rng, n, 0.1+0.5*rng.Float64(), int64(rng.Intn(10)))
		batch := genUpdates(rng, g, "mixed", 1+rng.Intn(4))
		updated := g.Clone()
		if err := updated.Apply(batch); err != nil {
			t.Fatal(err)
		}
		h := max(g.BitsNeeded(), updated.BitsNeeded()) + uint(rng.Intn(4))
		for _, lane := range lanes {
			opt := lane
			opt.Bits = h
			name := fmt.Sprintf("trial %d n=%d h=%d %+v", trial, n, h, lane)
			s, err := NewSession(g, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check := func(dest int, warm bool) {
				t.Helper()
				r, err := s.Resolve(ctx, dest)
				if err != nil {
					t.Fatalf("%s dest %d: %v", name, dest, err)
				}
				want := PredictedCost(n, h, r.Iterations, warm, opt.PaperInit, opt.SwitchOnlyBus)
				if r.Metrics != want {
					t.Errorf("%s dest %d warm=%v: measured %v, predicted %v", name, dest, warm, r.Metrics, want)
				}
			}
			for d := 0; d < n; d++ {
				check(d, false)
			}
			if err := s.Update(batch); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for d := 0; d < n; d++ {
				warm := s.warmUsable(d) != nil
				if warm {
					warmSolves[lane]++
				}
				check(d, warm)
			}
			s.Close()
		}
	}
	for _, lane := range lanes {
		if !lane.PaperInit && warmSolves[lane] == 0 {
			t.Errorf("%+v: no warm Resolve was priced", lane)
		}
	}
}

// maxTightLevel returns the deepest level of the BFS from dest over
// reversed tight edges (w_ij + Dist[j] == Dist[i]): the largest, over
// reachable vertices, of the fewest edges on any shortest path to dest.
func maxTightLevel(g *graph.Graph, r *Result) int {
	n, dest := g.N, r.Dest
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[dest] = 0
	deepest := 0
	for q := []int{dest}; len(q) > 0; q = q[1:] {
		j := q[0]
		for i := 0; i < n; i++ {
			w := g.At(i, j)
			if i == j || level[i] >= 0 || w == graph.NoEdge || r.Dist[i] == graph.NoEdge {
				continue
			}
			if r.Dist[i] == w+r.Dist[j] {
				level[i] = level[j] + 1
				deepest = level[i]
				q = append(q, i)
			}
		}
	}
	return deepest
}

// TestIterationLaw pins the closed form of the paper's O(p) round count:
// a cold solve runs exactly max(1, L) rounds, where L is the deepest
// tight-edge BFS level — the largest minimum edge count of a shortest
// path to dest (L-1 productive rounds after the 1-edge seed, then one
// detecting round). It holds on both lanes, zero-weight edges included.
func TestIterationLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(16)
		g := randomTieGraph(rng, n, 0.05+0.5*rng.Float64(), int64(rng.Intn(8)))
		for _, opt := range []Options{{}, {ReferenceKernels: true}} {
			s, err := NewSession(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < n; d++ {
				r, err := s.Solve(d)
				if err != nil {
					t.Fatal(err)
				}
				want := max(1, maxTightLevel(g, r))
				if r.Iterations != want {
					t.Errorf("trial %d n=%d dest %d %+v: Iterations %d, law %d", trial, n, d, opt, r.Iterations, want)
				}
			}
			s.Close()
		}
	}
}
