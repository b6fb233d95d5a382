// Command benchtab regenerates every experiment table of the reproduction
// (E1-E5 in DESIGN.md) and prints them in the format recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	benchtab                        # all experiments
//	benchtab -only E3               # one experiment (regexp over ids)
//	benchtab -only ResolveSweep/k=1 # just the matching wall-clock rows
//	benchtab -json                  # E1-E6 cycle tables + wall-clock benchmarks as JSON
//
// -only is a regexp matched against both experiment ids (E1..E9) and
// wall-clock benchmark row names; non-matching benchmarks are never run,
// so a narrow pattern is a cheap smoke test (CI runs one under -race).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"

	"ppamcp/internal/bench"
	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/ppclang"
)

// wallClock is one simulator host-performance measurement: the same
// workload as the repo's BenchmarkSolveWallClock (n=64 random connected
// graph, density 0.3, seed 5, destination 1), timed with
// testing.Benchmark so the numbers land in a machine-readable report.
type wallClock struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	N           int     `json:"iterations"`
	MsPerOp     float64 `json:"msPerOp"`
}

// report is the -json document: the abstract cycle tables (host-
// independent, golden-pinned) plus the simulator's own wall-clock cost
// (host-dependent, tracked across PRs in BENCH_*.json snapshots).
type report struct {
	Tables    []bench.Table `json:"tables"`
	WallClock []wallClock   `json:"wallClock"`
}

// runWallClock times the host-performance rows; a non-nil only regexp
// skips (never runs) every row whose name it does not match.
func runWallClock(only *regexp.Regexp) []wallClock {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	var out []wallClock
	add := func(name string, fn func(b *testing.B)) {
		if only != nil && !only.MatchString(name) {
			return
		}
		r := testing.Benchmark(fn)
		out = append(out, wallClock{
			Name:        name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
			MsPerOp:     float64(r.NsPerOp()) / 1e6,
		})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		add(fmt.Sprintf("SolveWallClock/n=64/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(g, 1, core.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	session := func(name string, opt core.Options) {
		add(name, func(b *testing.B) {
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
	session("SolveWallClock/n=64/session", core.Options{})
	// Interpretive-kernel ablation: the gap to n=64/session is what the
	// fused bit-sliced reduction kernels buy.
	session("SolveWallClock/n=64/session-reference", core.Options{ReferenceKernels: true})
	// Virtualization curve: the same n=64 problem block-mapped onto
	// shrinking physical arrays (k = n/m logical PEs per physical PE;
	// phys=64 is k=1, sanity-equal to the direct session). Tracks the
	// host cost of the packed virtualization engine across PRs.
	for _, phys := range []int{64, 32, 16, 8} {
		session(fmt.Sprintf("SolveWallClock/n=64/session-virt-m=%d", phys),
			core.Options{PhysicalSide: phys})
	}
	// All-pairs batching curve: one warm SolveSweep over all n
	// destinations vs the same table solved one warm destination at a
	// time. Both run the same fused DP lane, so the per-destination row
	// is the control for the sweep driver's own overhead.
	for _, n := range []int{16, 32, 64} {
		n := n
		ga := graph.GenRandomConnected(n, 0.3, 9, 5)
		dests := make([]int, n)
		for d := range dests {
			dests[d] = d
		}
		add(fmt.Sprintf("AllPairsWallClock/n=%d/per-destination", n), func(b *testing.B) {
			s, err := core.NewSession(ga, core.Options{})
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
		add(fmt.Sprintf("AllPairsWallClock/n=%d/sweep", n), func(b *testing.B) {
			s, err := core.NewSession(ga, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := s.SolveSweep(context.Background(), dests, func(*core.Result) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Incremental re-solve curve: k weight edits applied to a live session
	// (O(k) delta DMA + warm-start re-solve) vs the same edits replayed
	// from scratch (full weight reload + cold solve). The warm/cold gap at
	// small k is the whole point of Session.Update/Resolve; at k = n the
	// churn is global and the two converge.
	for _, k := range []int{1, 4, 16, 64} {
		k := k
		gd := graph.GenRandomConnected(64, 0.3, 9, 5)
		var edges [][2]int
		for i := 0; i < gd.N; i++ {
			for j := 0; j < gd.N; j++ {
				if i != j && gd.HasEdge(i, j) {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		// nextBatch rotates weight rewrites over the edge list; w' =
		// (w mod 9) + 1 always differs from w, so every edit is effective
		// and the graphs stay step-for-step identical across the two rows.
		nextBatch := func(g *graph.Graph, tick int, ups []graph.WeightUpdate) []graph.WeightUpdate {
			ups = ups[:0]
			for e := 0; e < k; e++ {
				uv := edges[(tick*k+e)*7%len(edges)]
				w := g.At(uv[0], uv[1])
				ups = append(ups, graph.WeightUpdate{U: uv[0], V: uv[1], W: (w % 9) + 1})
			}
			return ups
		}
		add(fmt.Sprintf("UpdateResolve/n=64/k=%d/warm", k), func(b *testing.B) {
			s, err := core.NewSession(gd.Clone(), core.Options{})
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
				ups = nextBatch(s.Graph(), i, ups)
				if err := s.Update(ups); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Resolve(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		add(fmt.Sprintf("UpdateResolve/n=64/k=%d/cold", k), func(b *testing.B) {
			gc := gd.Clone()
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
				ups = nextBatch(gc, i, ups)
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
	// Warm incremental all-pairs curve: k weight edits followed by a full
	// n-destination re-solve. The warm row keeps one live session whose
	// retained per-destination solutions seed each row's DP (and whose
	// skip-converged certificate emits untouched rows without running it);
	// the cold row replays the same edits as a weight reload plus a
	// from-scratch SolveSweep. The warm/cold gap at small k is the whole
	// point of Session.ResolveSweep.
	for _, k := range []int{1, 4, 16, 64} {
		k := k
		gd := graph.GenRandomConnected(64, 0.3, 9, 5)
		allDests := make([]int, gd.N)
		for d := range allDests {
			allDests[d] = d
		}
		var edges [][2]int
		for i := 0; i < gd.N; i++ {
			for j := 0; j < gd.N; j++ {
				if i != j && gd.HasEdge(i, j) {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		nextBatch := func(g *graph.Graph, tick int, ups []graph.WeightUpdate) []graph.WeightUpdate {
			ups = ups[:0]
			for e := 0; e < k; e++ {
				uv := edges[(tick*k+e)*7%len(edges)]
				w := g.At(uv[0], uv[1])
				ups = append(ups, graph.WeightUpdate{U: uv[0], V: uv[1], W: (w % 9) + 1})
			}
			return ups
		}
		discard := func(*core.Result) error { return nil }
		add(fmt.Sprintf("ResolveSweep/n=64/k=%d/warm", k), func(b *testing.B) {
			s, err := core.NewSession(gd.Clone(), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Prime every destination's retained solution.
			if err := s.ResolveSweep(context.Background(), allDests, discard); err != nil {
				b.Fatal(err)
			}
			ups := make([]graph.WeightUpdate, 0, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ups = nextBatch(s.Graph(), i, ups)
				if err := s.Update(ups); err != nil {
					b.Fatal(err)
				}
				if err := s.ResolveSweep(context.Background(), allDests, discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		add(fmt.Sprintf("ResolveSweep/n=64/k=%d/cold", k), func(b *testing.B) {
			gc := gd.Clone()
			s, err := core.NewSession(gc, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ups := make([]graph.WeightUpdate, 0, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ups = nextBatch(gc, i, ups)
				if err := gc.Apply(ups); err != nil {
					b.Fatal(err)
				}
				if err := s.Reload(gc); err != nil {
					b.Fatal(err)
				}
				if err := s.SolveSweep(context.Background(), allDests, discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// PPC execution curve: the paper's listing run end to end through the
	// language stack. bytecode vs reference is the flat-opcode compiler's
	// win over the tree-walking oracle (identical metrics either way).
	gp := graph.GenRandomConnected(16, 0.3, 9, 5)
	h := gp.BitsNeeded()
	ppc := func(name string, opts ...ppclang.Option) {
		add(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.RunPaperPPC(gp, 1, h, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	ppc("PPCPaper/n=16/bytecode")
	ppc("PPCPaper/n=16/reference", ppclang.WithReference(true))
	return out
}

func main() {
	only := flag.String("only", "", "regexp over experiment ids (E1..E9) and wall-clock row names; matching rows run, everything else is skipped")
	format := flag.String("format", "text", "output format: text|markdown")
	jsonOut := flag.Bool("json", false, "emit E1-E6 tables and wall-clock benchmarks as JSON")
	flag.Parse()

	var re *regexp.Regexp
	if *only != "" {
		var err error
		if re, err = regexp.Compile(*only); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: bad -only regexp: %v\n", err)
			os.Exit(1)
		}
	}

	ids := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	runners := map[string]func() bench.Table{
		"E1": bench.RunE1,
		"E2": bench.RunE2,
		"E3": bench.RunE3,
		"E4": bench.RunE4,
		"E5": bench.RunE5,
		"E6": bench.RunE6,
		"E7": bench.RunE7,
		"E8": bench.RunE8,
		"E9": bench.RunE9,
	}
	match := func(id string) bool { return re == nil || re.MatchString(id) }

	if *jsonOut {
		rep := report{}
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6"} {
			if match(id) {
				rep.Tables = append(rep.Tables, runners[id]())
			}
		}
		rep.WallClock = runWallClock(re)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}

	render := func(t bench.Table) string {
		if *format == "markdown" {
			return t.Markdown()
		}
		return t.Format()
	}
	if re == nil {
		for _, t := range bench.RunAll() {
			fmt.Println(render(t))
		}
		return
	}
	ran := 0
	for _, id := range ids {
		if match(id) {
			fmt.Println(render(runners[id]()))
			ran++
		}
	}
	for _, wc := range runWallClock(re) {
		fmt.Printf("%-44s %12d ns/op %8.3f ms/op %8d allocs/op\n",
			wc.Name, wc.NsPerOp, wc.MsPerOp, wc.AllocsPerOp)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchtab: -only %q matched no experiment or wall-clock row\n", *only)
		os.Exit(1)
	}
}
