package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ppamcp/internal/graph"
)

func mustSolve(t *testing.T, g *graph.Graph, dest int, opt Options) *Result {
	t.Helper()
	r, err := Solve(g, dest, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return r
}

func agreeWithBellmanFord(t *testing.T, g *graph.Graph, dest int, r *Result) {
	t.Helper()
	bf, err := graph.BellmanFord(g, dest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Dist, bf.Dist) {
		t.Errorf("Dist = %v, BF = %v", r.Dist, bf.Dist)
	}
	if !reflect.DeepEqual(r.Next, bf.Next) {
		t.Errorf("Next = %v, BF = %v", r.Next, bf.Next)
	}
	if r.Iterations != bf.Iterations {
		t.Errorf("Iterations = %d, BF = %d", r.Iterations, bf.Iterations)
	}
	if err := graph.CheckResult(g, &r.Result); err != nil {
		t.Errorf("CheckResult: %v", err)
	}
}

func TestSolveChain(t *testing.T) {
	g := graph.GenChain(6, 2)
	r := mustSolve(t, g, 5, Options{})
	if want := []int64{10, 8, 6, 4, 2, 0}; !reflect.DeepEqual(r.Dist, want) {
		t.Errorf("Dist = %v, want %v", r.Dist, want)
	}
	if want := []int{1, 2, 3, 4, 5, -1}; !reflect.DeepEqual(r.Next, want) {
		t.Errorf("Next = %v, want %v", r.Next, want)
	}
	if r.Iterations != 5 { // p = 5: 4 productive rounds + 1 detecting
		t.Errorf("Iterations = %d, want 5", r.Iterations)
	}
	agreeWithBellmanFord(t, g, 5, r)
}

func TestSolveStarConvergesInOneRound(t *testing.T) {
	g := graph.GenStar(7, 3)
	r := mustSolve(t, g, 0, Options{})
	if r.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", r.Iterations)
	}
	agreeWithBellmanFord(t, g, 0, r)
}

func TestSolveUnreachable(t *testing.T) {
	g := graph.GenChain(4, 1)
	r := mustSolve(t, g, 0, Options{}) // nothing reaches vertex 0
	if r.Dist[1] != graph.NoEdge || r.Next[1] != -1 {
		t.Errorf("unreachable: Dist[1]=%d Next[1]=%d", r.Dist[1], r.Next[1])
	}
	agreeWithBellmanFord(t, g, 0, r)
}

func TestSolveSingleVertex(t *testing.T) {
	r := mustSolve(t, graph.New(1), 0, Options{})
	if r.Dist[0] != 0 || r.Next[0] != -1 || r.Iterations != 1 {
		t.Errorf("trivial: %+v", r)
	}
}

// TestSolveZeroWeightGraphs: with default Options, graphs whose weights
// are all zero (edgeless included) get words wide enough for their vertex
// indices and solve exactly.
func TestSolveZeroWeightGraphs(t *testing.T) {
	for _, n := range []int{5, 6, 17, 40} {
		edgeless := graph.New(n)
		zeros := graph.GenRandomConnected(n, 0.3, 1, int64(n))
		for i := range zeros.W {
			if zeros.W[i] != graph.NoEdge {
				zeros.W[i] = 0
			}
		}
		for _, g := range []*graph.Graph{edgeless, zeros} {
			for _, dest := range []int{0, n - 1} {
				agreeWithBellmanFord(t, g, dest, mustSolve(t, g, dest, Options{}))
			}
		}
	}
}

func TestSolveDestinationVariants(t *testing.T) {
	g := graph.GenRandomConnected(9, 0.3, 7, 17)
	for dest := 0; dest < g.N; dest++ {
		r := mustSolve(t, g, dest, Options{})
		agreeWithBellmanFord(t, g, dest, r)
	}
}

func TestSolveRandomMatchesBellmanFordExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(14)
		g := graph.GenRandom(n, 0.15+rng.Float64()*0.6, 1+int64(rng.Intn(20)), rng.Int63())
		dest := rng.Intn(n)
		r := mustSolve(t, g, dest, Options{})
		agreeWithBellmanFord(t, g, dest, r)
	}
}

func TestSolveGridWorkload(t *testing.T) {
	g, _ := graph.GenGrid(graph.GridSpec{Rows: 5, Cols: 5, MaxW: 4, Obstacle: 0.15, Seed: 3})
	r := mustSolve(t, g, g.N-1, Options{})
	agreeWithBellmanFord(t, g, g.N-1, r)
}

func TestSolveDiameterIterations(t *testing.T) {
	// Iterations must equal p exactly: p-1 productive + 1 detecting round.
	for _, p := range []int{1, 2, 5, 9} {
		g := graph.GenDiameter(10, p)
		r := mustSolve(t, g, 0, Options{})
		if r.Iterations != p {
			t.Errorf("p=%d: Iterations = %d", p, r.Iterations)
		}
	}
}

func TestSolveMetricsMatchPredictedCost(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		g := graph.GenRandom(n, 0.4, 9, rng.Int63())
		dest := rng.Intn(n)
		for _, paperInit := range []bool{false, true} {
			if paperInit && !g.Symmetric() {
				continue
			}
			r := mustSolve(t, g, dest, Options{PaperInit: paperInit})
			want := PredictedCost(n, 0, r.Bits, r.Iterations, false, paperInit, false)
			got := r.Metrics
			if got.BusCycles != want.BusCycles ||
				got.WiredOrCycles != want.WiredOrCycles ||
				got.GlobalOrOps != want.GlobalOrOps {
				t.Errorf("trial %d (paperInit=%v): comm metrics %v, predicted %v",
					trial, paperInit, got, want)
			}
			if got.ShiftSteps != 0 || got.RouterCycles != 0 {
				t.Errorf("trial %d: PPA solve used shifts/router: %v", trial, got)
			}
		}
	}
}

func TestSolveCostScalesLinearlyInH(t *testing.T) {
	// E1's shape at the Solve level: doubling h doubles the wired-OR count
	// and leaves the per-iteration broadcast count unchanged.
	g := graph.GenChain(8, 1)
	r16 := mustSolve(t, g, 7, Options{Bits: 16})
	r32 := mustSolve(t, g, 7, Options{Bits: 32})
	if r16.Iterations != r32.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", r16.Iterations, r32.Iterations)
	}
	if r32.Metrics.WiredOrCycles != 2*r16.Metrics.WiredOrCycles {
		t.Errorf("wired-OR cycles: h=32 %d, h=16 %d (want exactly 2x)",
			r32.Metrics.WiredOrCycles, r16.Metrics.WiredOrCycles)
	}
	if r32.Metrics.BusCycles != r16.Metrics.BusCycles {
		t.Errorf("bus cycles differ across h: %d vs %d",
			r32.Metrics.BusCycles, r16.Metrics.BusCycles)
	}
}

func TestPaperInitCorrectOnSymmetricGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(8)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					w := 1 + rng.Int63n(9)
					g.SetEdge(i, j, w)
					g.SetEdge(j, i, w)
				}
			}
		}
		dest := rng.Intn(n)
		r := mustSolve(t, g, dest, Options{PaperInit: true})
		agreeWithBellmanFord(t, g, dest, r)
	}
}

// TestPaperInitErratumOnDirectedGraph demonstrates deviation 2 of
// DESIGN.md: statement 5 as printed loads row d of W where the DP needs
// column d, which fabricates a path on asymmetric inputs.
func TestPaperInitErratumOnDirectedGraph(t *testing.T) {
	g := graph.New(2)
	g.SetEdge(1, 0, 1) // only edge: 1 -> 0; vertex 0 cannot reach dest 1
	wrong := mustSolve(t, g, 1, Options{PaperInit: true})
	if wrong.Dist[0] != 1 {
		t.Errorf("expected the documented erratum (fabricated dist 1), got %d", wrong.Dist[0])
	}
	right := mustSolve(t, g, 1, Options{})
	if right.Dist[0] != graph.NoEdge {
		t.Errorf("corrected init: Dist[0] = %d, want unreachable", right.Dist[0])
	}
}

func TestSolveWorkersDeterminism(t *testing.T) {
	g := graph.GenRandomConnected(12, 0.25, 9, 5)
	base := mustSolve(t, g, 4, Options{})
	for _, workers := range []int{2, 4, 8} {
		r := mustSolve(t, g, 4, Options{Workers: workers})
		if !reflect.DeepEqual(r.Dist, base.Dist) || !reflect.DeepEqual(r.Next, base.Next) ||
			r.Metrics != base.Metrics {
			t.Errorf("workers=%d diverged from serial run", workers)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	g := graph.GenChain(4, 1)
	if _, err := Solve(g, -1, Options{}); err == nil {
		t.Error("negative dest accepted")
	}
	if _, err := Solve(g, 4, Options{}); err == nil {
		t.Error("out-of-range dest accepted")
	}
	if _, err := Solve(g, 0, Options{Bits: 63}); err == nil {
		t.Error("oversized Bits accepted")
	}
	// Too few bits to hold vertex indices.
	big := graph.GenChain(10, 1)
	if _, err := Solve(big, 0, Options{Bits: 3}); err == nil {
		t.Error("3-bit machine accepted a 10-vertex problem")
	}
	// Too few bits to keep worst-case path costs below MAXINT.
	heavy := graph.GenChain(5, 60)
	if _, err := Solve(heavy, 4, Options{Bits: 7}); err == nil {
		t.Error("saturating configuration accepted")
	}
	bad := graph.New(2)
	bad.W[1] = -5
	if _, err := Solve(bad, 0, Options{}); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestSolveAutoBitsMatchesExplicit(t *testing.T) {
	g := graph.GenRandomConnected(7, 0.4, 11, 23)
	auto := mustSolve(t, g, 2, Options{})
	explicit := mustSolve(t, g, 2, Options{Bits: auto.Bits})
	if !reflect.DeepEqual(auto.Dist, explicit.Dist) || auto.Metrics != explicit.Metrics {
		t.Error("auto bits differs from explicit same-width run")
	}
	if auto.Bits != g.BitsNeeded() {
		t.Errorf("auto bits = %d, BitsNeeded = %d", auto.Bits, g.BitsNeeded())
	}
}

func TestSolveMaxIterationsGuard(t *testing.T) {
	g := graph.GenChain(8, 1)
	if _, err := Solve(g, 7, Options{MaxIterations: 2}); err == nil {
		t.Error("MaxIterations guard did not trip")
	}
}

func TestSolveEqualCostTieBreaksToSmallestIndex(t *testing.T) {
	// Vertex 0 reaches dest 3 at equal cost via 1 and 2 in the same round;
	// selected_min(COL, ...) must pick 1.
	g := graph.New(4)
	g.SetEdge(0, 2, 5)
	g.SetEdge(0, 1, 5)
	g.SetEdge(1, 3, 5)
	g.SetEdge(2, 3, 5)
	r := mustSolve(t, g, 3, Options{})
	if r.Dist[0] != 10 || r.Next[0] != 1 {
		t.Errorf("Dist[0]=%d Next[0]=%d, want 10 via 1", r.Dist[0], r.Next[0])
	}
}
