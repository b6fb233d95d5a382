package bench

import (
	"fmt"

	"ppamcp/internal/apsp"
	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// E6PhysicalSides is the physical-array sweep of the virtualization
// ablation (logical side fixed at E6N).
var (
	E6N             = 32
	E6PhysicalSides = []int{32, 16, 8, 4, 2}
)

// RunE6 is the virtualization ablation (our extension beyond the paper):
// the same 32-vertex problem solved on progressively smaller physical
// arrays with k x k logical PEs per physical PE. Answers are identical;
// every class of communication cycle scales by exactly k.
func RunE6() Table {
	t := Table{
		ID:     "E6",
		Title:  "virtualization ablation: logical 32x32 on an m x m physical array",
		Claim:  "extension: block mapping lifts the paper's one-element-per-PE assumption at cost factor k = n/m",
		Header: []string{"phys m", "k", "iters", "bus", "wired-OR", "stitch shifts", "comm total", "(bus+wOR)/k"},
	}
	g := graph.GenRandomConnected(E6N, 0.3, 9, seed)
	base, err := core.Solve(g, 1, core.Options{})
	if err != nil {
		panic(fmt.Sprintf("bench E6: %v", err))
	}
	for _, m := range E6PhysicalSides {
		// The machine program (ReferenceKernels) issues the physical
		// transactions, so each row measures the law instead of restating
		// the fused lane's closed-form geometry term.
		r, err := core.Solve(g, 1, core.Options{PhysicalSide: m, Bits: base.Bits, ReferenceKernels: true})
		if err != nil {
			panic(fmt.Sprintf("bench E6 (m=%d): %v", m, err))
		}
		k := int64(E6N / m)
		t.AddRow(m, k, r.Iterations, r.Metrics.BusCycles, r.Metrics.WiredOrCycles,
			r.Metrics.ShiftSteps, r.Metrics.CommCycles(),
			(r.Metrics.BusCycles+r.Metrics.WiredOrCycles)/k)
	}
	t.Notes = append(t.Notes,
		"answers identical at every m (tested); bus and wired-OR cycles scale by exactly k",
		"((bus+wOR)/k is constant); the stitch column is 2 one-bit physical shifts per logical",
		"wired-OR, needed to resolve clusters that span block boundaries")
	return t
}

// E7Widths is the word-width sweep of the bus-model ablation.
var E7Widths = []uint{8, 16, 32}

// RunE7 is the bus-model ablation (DESIGN.md deviation 3a): the same MCP
// solved with the wired-OR bus mode versus with plain segmented broadcasts
// only (the weaker hardware reading, under which the paper's min() listing
// is exact as printed). Both are Θ(p·h); the switch-only model pays ~2x.
func RunE7() Table {
	t := Table{
		ID:    "E7",
		Title: "bus-model ablation: wired-OR vs switch-only or()",
		Claim: "deviation 3a: the Θ(p·h) result holds under either reading of the or() primitive",
		Header: []string{"h", "iters", "wired: wOR", "wired: bus", "wired comm",
			"switch: bus", "switch comm", "ratio"},
	}
	g := graph.GenRandomConnected(24, 0.3, 9, seed)
	for _, h := range E7Widths {
		wired, err := core.Solve(g, 5, core.Options{Bits: h})
		if err != nil {
			panic(fmt.Sprintf("bench E7 wired: %v", err))
		}
		// Measured on the machine program, as in E6.
		switched, err := core.Solve(g, 5, core.Options{Bits: h, SwitchOnlyBus: true, ReferenceKernels: true})
		if err != nil {
			panic(fmt.Sprintf("bench E7 switched: %v", err))
		}
		ratio := float64(switched.Metrics.CommCycles()) / float64(wired.Metrics.CommCycles())
		t.AddRow(h, wired.Iterations,
			wired.Metrics.WiredOrCycles, wired.Metrics.BusCycles, wired.Metrics.CommCycles(),
			switched.Metrics.BusCycles, switched.Metrics.CommCycles(),
			fmt.Sprintf("%.2f", ratio))
	}
	t.Notes = append(t.Notes,
		"identical Dist/Next/Iterations under both models (tested);",
		"per min: h wired-OR + 2 bus (wired) vs 2h+2 bus (switch-only)")
	return t
}

// E8Sides is the n sweep of the all-pairs strategy comparison.
var E8Sides = []int{4, 8, 16, 32}

// RunE8 compares the two all-pairs strategies on the same machine
// (extension beyond the paper): n runs of the paper's single-destination
// DP (bus fabric, Θ(n·p·h)) versus min-plus matrix squaring with Cannon
// products (shift fabric, Θ(n·log p)).
func RunE8() Table {
	t := Table{
		ID:    "E8",
		Title: "all-pairs strategies: n x single-destination DP vs min-plus squaring",
		Claim: "extension: the paper's DP is one point in the machine's design space; Cannon squaring trades bus cycles for shifts",
		Header: []string{"n", "h", "DP comm (bus+wOR+gOR)", "DP rounds",
			"squaring shifts", "squarings", "distances equal"},
	}
	for _, n := range E8Sides {
		g := graph.GenRandomConnected(n, 0.3, 9, seed+int64(2*n))
		ap, err := core.SolveAllPairs(g, core.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench E8 dp: %v", err))
		}
		sq, err := apsp.Solve(g, apsp.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench E8 squaring: %v", err))
		}
		equal := true
		for i := 0; i < n*n; i++ {
			if i/n != i%n && ap.Dist[i] != sq.Dist[i] {
				equal = false
			}
		}
		t.AddRow(n, sq.Bits, ap.Metrics.CommCycles(), ap.Iterations,
			sq.Metrics.ShiftSteps, sq.Squarings, equal)
	}
	t.Notes = append(t.Notes,
		"units differ (bus transactions vs word shifts); squaring produces no PTN matrix;",
		"the DP column grows with n*p*h, the squaring column with n*log p")
	return t
}

// E9N is the machine side of the fault-injection sweep.
var E9N = 8

// RunE9 is the fault-injection study as a table: one stuck switch box
// swept over every PE of an E9N x E9N machine, in both polarities, with
// the MCP solved on each damaged machine. Outcomes are classified as
// still-correct (the fault was not load-bearing), corrupted (wrong
// output — every one must be caught by the independent certifier) or
// diverged (the DP failed to converge and reported an error).
func RunE9() Table {
	t := Table{
		ID:     "E9",
		Title:  "fault injection: one stuck switch box, swept over every PE",
		Claim:  "extension: every output corruption a stuck switch can cause is rejected by the optimality certifier",
		Header: []string{"fault kind", "injections", "still correct", "corrupted (caught)", "corrupted (missed)", "diverged"},
	}
	g := graph.GenRandomConnected(E9N, 0.35, 9, seed)
	dest := 2
	truth, err := graph.BellmanFord(g, dest)
	if err != nil {
		panic(fmt.Sprintf("bench E9: %v", err))
	}
	h := g.BitsNeeded()
	for _, kind := range []ppa.FaultKind{ppa.StuckShort, ppa.StuckOpen} {
		stillCorrect, caught, missed, diverged := 0, 0, 0, 0
		for pe := 0; pe < E9N*E9N; pe++ {
			m := ppa.New(E9N, h)
			m.InjectFault(pe, kind)
			res, err := core.SolveOn(m, g, dest, core.Options{MaxIterations: 3 * E9N})
			switch {
			case err != nil:
				diverged++
			case sameDist(res.Dist, truth.Dist):
				stillCorrect++
			case graph.CheckResult(g, &res.Result) != nil:
				caught++
			default:
				missed++
			}
		}
		t.AddRow(kind, E9N*E9N, stillCorrect, caught, missed, diverged)
	}
	t.Notes = append(t.Notes,
		"the 'corrupted (missed)' column must be zero: single-destination distances are",
		"uniquely determined by the optimality conditions the certifier checks")
	return t
}

func sameDist(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
