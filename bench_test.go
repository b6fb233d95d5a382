package ppamcp

// One testing.B benchmark per experiment in DESIGN.md's index. Each
// reports, besides wall time (which measures the *simulator*, not the
// architecture), the abstract machine cost as custom metrics — those are
// the numbers EXPERIMENTS.md compares against the paper's claims.
// Regenerate the full tables with: go run ./cmd/benchtab
//
// The Benchmark*WallClock, BenchmarkUpdateResolve and
// BenchmarkResolveSweep curves time the simulator on the host; repeat
// them with -count and quote the spread:
//
//	go test -run '^$' -bench <pattern> -count 10 .

import (
	"context"
	"fmt"
	"testing"

	"ppamcp/internal/bench"
	"ppamcp/internal/core"
	"ppamcp/internal/gcn"
	"ppamcp/internal/graph"
	"ppamcp/internal/hypercube"
	"ppamcp/internal/mesh"
	"ppamcp/internal/ppclang"
)

// BenchmarkE1BitSerialMin measures the bit-serial min: Θ(h) bus
// transactions, flat in n (claim §3).
func BenchmarkE1BitSerialMin(b *testing.B) {
	for _, h := range []uint{8, 16, 32} {
		for _, n := range []int{8, 32, 128} {
			b.Run(fmt.Sprintf("h=%d/n=%d", h, n), func(b *testing.B) {
				var comm int64
				for i := 0; i < b.N; i++ {
					m := bench.MeasureMin(n, h, 1)
					comm = m.CommCycles()
				}
				b.ReportMetric(float64(comm), "commCycles/op")
			})
		}
	}
}

// BenchmarkE2IterationScaling measures full MCP solves across the exact
// diameter p: Θ(p·h) total (claims §3/§4).
func BenchmarkE2IterationScaling(b *testing.B) {
	const n = 32
	for _, p := range []int{1, 4, 16, 31} {
		g := graph.GenDiameter(n, p)
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var comm int64
			for i := 0; i < b.N; i++ {
				r, err := core.Solve(g, 0, core.Options{Bits: 16})
				if err != nil {
					b.Fatal(err)
				}
				comm = r.Metrics.CommCycles()
			}
			b.ReportMetric(float64(comm), "commCycles/op")
		})
	}
}

// BenchmarkE3Architectures runs the same workload on all four machines
// (claim §1/§4: PPA ≈ CM hypercube ≈ GCN; all beat the plain mesh as n
// grows past h).
func BenchmarkE3Architectures(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		g := graph.GenRandomConnected(n, 0.3, 9, int64(n))
		dest := n / 2
		b.Run(fmt.Sprintf("ppa/n=%d", n), func(b *testing.B) {
			var comm int64
			for i := 0; i < b.N; i++ {
				r, err := core.Solve(g, dest, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				comm = r.Metrics.CommCycles()
			}
			b.ReportMetric(float64(comm), "commCycles/op")
		})
		b.Run(fmt.Sprintf("gcn/n=%d", n), func(b *testing.B) {
			var comm int64
			for i := 0; i < b.N; i++ {
				r, err := gcn.SolveMCP(g, dest, gcn.Options{})
				if err != nil {
					b.Fatal(err)
				}
				comm = r.Metrics.CommCycles()
			}
			b.ReportMetric(float64(comm), "commCycles/op")
		})
		b.Run(fmt.Sprintf("hypercube/n=%d", n), func(b *testing.B) {
			var router int64
			for i := 0; i < b.N; i++ {
				r, err := hypercube.SolveMCP(g, dest, hypercube.Options{})
				if err != nil {
					b.Fatal(err)
				}
				router = r.Metrics.RouterCycles
			}
			b.ReportMetric(float64(router), "routerCycles/op")
		})
		b.Run(fmt.Sprintf("mesh/n=%d", n), func(b *testing.B) {
			var shifts int64
			for i := 0; i < b.N; i++ {
				r, err := mesh.SolveMCP(g, dest, mesh.Options{})
				if err != nil {
					b.Fatal(err)
				}
				shifts = r.Metrics.ShiftSteps
			}
			b.ReportMetric(float64(shifts), "shiftSteps/op")
		})
		b.Run(fmt.Sprintf("bellmanford/n=%d", n), func(b *testing.B) {
			var relax int64
			for i := 0; i < b.N; i++ {
				r, err := graph.BellmanFord(g, dest)
				if err != nil {
					b.Fatal(err)
				}
				relax = r.Relaxations
			}
			b.ReportMetric(float64(relax), "relaxations/op")
		})
	}
}

// BenchmarkE4BroadcastMicro measures one one-to-all broadcast on both
// fabrics (claim §1: the bus short-circuits intermediate nodes).
func BenchmarkE4BroadcastMicro(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var bus, shifts int64
			for i := 0; i < b.N; i++ {
				bus, shifts = bench.MeasureBroadcast(n)
			}
			b.ReportMetric(float64(bus), "ppaBusCycles/op")
			b.ReportMetric(float64(shifts), "meshShiftSteps/op")
		})
	}
}

// BenchmarkE5PPCInterpreter runs the paper's PPC program end to end
// (claim §1/§2: implemented in PPC, validated through simulation). The
// wall-time gap to the native solver is interpreter overhead; the
// commCycles metric is identical by construction (tested in
// internal/ppclang and internal/bench).
func BenchmarkE5PPCInterpreter(b *testing.B) {
	g := graph.GenRandomConnected(10, 0.3, 9, 3)
	native, err := core.Solve(g, 9, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// ppc-bytecode vs ppc-reference is the compiler's win: same program,
	// same metrics, different host dispatch (flat opcodes vs AST walk).
	b.Run("ppc-bytecode", func(b *testing.B) {
		var comm int64
		for i := 0; i < b.N; i++ {
			_, m, err := bench.RunPaperPPC(g, 9, native.Bits)
			if err != nil {
				b.Fatal(err)
			}
			comm = m.CommCycles()
		}
		b.ReportMetric(float64(comm), "commCycles/op")
	})
	b.Run("ppc-reference", func(b *testing.B) {
		var comm int64
		for i := 0; i < b.N; i++ {
			_, m, err := bench.RunPaperPPC(g, 9, native.Bits, ppclang.WithReference(true))
			if err != nil {
				b.Fatal(err)
			}
			comm = m.CommCycles()
		}
		b.ReportMetric(float64(comm), "commCycles/op")
	})
	b.Run("native", func(b *testing.B) {
		var comm int64
		for i := 0; i < b.N; i++ {
			r, err := core.Solve(g, 9, core.Options{Bits: native.Bits})
			if err != nil {
				b.Fatal(err)
			}
			comm = r.Metrics.CommCycles()
		}
		b.ReportMetric(float64(comm), "commCycles/op")
	})
}

// BenchmarkE6Virtualized measures the block-mapped solver (extension):
// physical bus/wired-OR cycles scale by exactly k = n/m.
func BenchmarkE6Virtualized(b *testing.B) {
	g := graph.GenRandomConnected(32, 0.3, 9, 7)
	base, err := core.Solve(g, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, phys := range []int{32, 16, 8, 4} {
		b.Run(fmt.Sprintf("phys=%d", phys), func(b *testing.B) {
			var comm int64
			for i := 0; i < b.N; i++ {
				r, err := core.Solve(g, 1, core.Options{PhysicalSide: phys, Bits: base.Bits})
				if err != nil {
					b.Fatal(err)
				}
				comm = r.Metrics.BusCycles + r.Metrics.WiredOrCycles
			}
			b.ReportMetric(float64(comm), "physBusWOR/op")
		})
	}
}

// BenchmarkSolveWallClock is a plain host-performance benchmark of the
// simulator itself (not an experiment): how fast the Go implementation
// simulates one full solve, one-shot, with the ring worker pool, and
// with a reused Session.
func BenchmarkSolveWallClock(b *testing.B) {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	oneShot := func(name string, opt core.Options) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(g, 1, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	oneShot("n=64/one-shot", core.Options{})
	// The workers curve runs the machine program: the default fused lane
	// issues no bus transaction, so it never dispatches ring work.
	for _, workers := range []int{1, 2, 4, 8} {
		oneShot(fmt.Sprintf("n=64/workers=%d", workers), core.Options{Workers: workers, ReferenceKernels: true})
	}
	session := func(name string, opt core.Options) {
		b.Run(name, func(b *testing.B) {
			s, err := core.NewSession(g, opt)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	session("n=64/session", core.Options{})
	// The machine-program ablation of the same session path: the DP as
	// real bus transactions on the interpretive kernels. The gap to
	// n=64/session is what the fused DP lane buys.
	session("n=64/session-reference", core.Options{ReferenceKernels: true})
	// Virtualization curve: the same warm-session workload block-mapped
	// onto an m x m physical array (k = 64/m within-block planes per
	// logical transaction). phys=64 is the k=1 sanity point (direct
	// execution). A default virtualized session takes the fused DP lane,
	// whose speed does not depend on m, so the curve runs with
	// ReferenceKernels: it times virt's packed engine under the machine
	// program.
	for _, phys := range []int{64, 32, 16, 8} {
		session(fmt.Sprintf("n=64/virt-m=%d", phys), core.Options{PhysicalSide: phys, ReferenceKernels: true})
	}
}

// allDests lists every vertex of an n-vertex graph as a destination.
func allDests(n int) []int {
	dests := make([]int, n)
	for d := range dests {
		dests[d] = d
	}
	return dests
}

func discard(*core.Result) error { return nil }

// BenchmarkAllPairsWallClock times a full all-pairs table: one warm
// SolveSweep over all n destinations vs the same table solved one warm
// destination at a time. Both run the same fused DP lane, so the
// per-destination row is the control for the sweep driver's own
// overhead. The complete-graph row guards the case with no sparsity for
// the lane's frontier push to exploit: every entry has n-1 in-edges.
func BenchmarkAllPairsWallClock(b *testing.B) {
	sweep := func(name string, g *graph.Graph) {
		dests := allDests(g.N)
		b.Run(name, func(b *testing.B) {
			s, err := core.NewSession(g, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SolveSweep(context.Background(), dests, discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{16, 32, 64} {
		g := graph.GenRandomConnected(n, 0.3, 9, 5)
		dests := allDests(n)
		b.Run(fmt.Sprintf("n=%d/per-destination", n), func(b *testing.B) {
			s, err := core.NewSession(g, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, d := range dests {
					if _, err := s.Solve(d); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		sweep(fmt.Sprintf("n=%d/sweep", n), g)
	}
	sweep("n=64/complete/sweep", graph.GenRandomConnected(64, 1.0, 9, 5))
}

// weightRewrites returns the update stream of the incremental curves:
// batch tick rewrites k edges of g, rotating over its edge list. The new
// weight w' = (w mod 9) + 1 always differs from the current w and never
// deletes an edge, so every edit is effective and a warm and a cold row
// fed the same ticks see step-for-step identical graphs.
func weightRewrites(g *graph.Graph, k int) func(cur *graph.Graph, tick int, ups []graph.WeightUpdate) []graph.WeightUpdate {
	var edges [][2]int
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if i != j && g.HasEdge(i, j) {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return func(cur *graph.Graph, tick int, ups []graph.WeightUpdate) []graph.WeightUpdate {
		ups = ups[:0]
		for e := 0; e < k; e++ {
			uv := edges[(tick*k+e)*7%len(edges)]
			w := cur.At(uv[0], uv[1])
			ups = append(ups, graph.WeightUpdate{U: uv[0], V: uv[1], W: (w % 9) + 1})
		}
		return ups
	}
}

// BenchmarkUpdateResolve is the incremental re-solve curve: k weight
// edits applied to a live session (O(k) delta DMA + warm-start re-solve
// of one destination) vs the same edits replayed from scratch (full
// weight reload + cold solve). The warm/cold gap at small k is the whole
// point of Session.Update/Resolve; at k = n the churn is global and the
// two converge.
func BenchmarkUpdateResolve(b *testing.B) {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	for _, k := range []int{1, 4, 16, 64} {
		next := weightRewrites(g, k)
		b.Run(fmt.Sprintf("n=64/k=%d/warm", k), func(b *testing.B) {
			s, err := core.NewSession(g.Clone(), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Resolve(context.Background(), 1); err != nil {
				b.Fatal(err)
			}
			ups := make([]graph.WeightUpdate, 0, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ups = next(s.Graph(), i, ups)
				if err := s.Update(ups); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Resolve(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=64/k=%d/cold", k), func(b *testing.B) {
			gc := g.Clone()
			s, err := core.NewSession(gc, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Solve(1); err != nil {
				b.Fatal(err)
			}
			ups := make([]graph.WeightUpdate, 0, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ups = next(gc, i, ups)
				if err := gc.Apply(ups); err != nil {
					b.Fatal(err)
				}
				if err := s.Reload(gc); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solve(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResolveSweep is the warm incremental all-pairs curve: k
// weight edits followed by a full 64-destination re-solve. The warm row
// keeps one live session whose retained per-destination solutions seed
// each row's DP (and whose skip-converged certificate emits untouched
// rows without running it); the cold row replays the same edits as a
// weight reload plus a from-scratch SolveSweep. The warm/cold gap at
// small k is the whole point of Session.ResolveSweep.
func BenchmarkResolveSweep(b *testing.B) {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	dests := allDests(g.N)
	for _, k := range []int{1, 4, 16, 64} {
		next := weightRewrites(g, k)
		b.Run(fmt.Sprintf("n=64/k=%d/warm", k), func(b *testing.B) {
			s, err := core.NewSession(g.Clone(), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Prime every destination's retained solution.
			if err := s.ResolveSweep(context.Background(), dests, discard); err != nil {
				b.Fatal(err)
			}
			ups := make([]graph.WeightUpdate, 0, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ups = next(s.Graph(), i, ups)
				if err := s.Update(ups); err != nil {
					b.Fatal(err)
				}
				if err := s.ResolveSweep(context.Background(), dests, discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=64/k=%d/cold", k), func(b *testing.B) {
			gc := g.Clone()
			s, err := core.NewSession(gc, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ups := make([]graph.WeightUpdate, 0, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ups = next(gc, i, ups)
				if err := gc.Apply(ups); err != nil {
					b.Fatal(err)
				}
				if err := s.Reload(gc); err != nil {
					b.Fatal(err)
				}
				if err := s.SolveSweep(context.Background(), dests, discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
