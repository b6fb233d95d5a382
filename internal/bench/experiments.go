package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"ppamcp/internal/core"
	"ppamcp/internal/gcn"
	"ppamcp/internal/graph"
	"ppamcp/internal/hypercube"
	"ppamcp/internal/mesh"
	"ppamcp/internal/par"
	"ppamcp/internal/ppa"
	"ppamcp/internal/ppclang"
)

// seed fixes every experiment's workload; the tables are deterministic.
const seed = 19980330 // IPPS'98, Orlando

// paperProg parses the paper's PPC listing once.
var paperProg = sync.OnceValues(func() (*ppclang.Program, error) {
	return ppclang.Compile(ppclang.PaperMCPSource)
})

// E1Widths and E1Sides are the sweep of experiment E1.
var (
	E1Widths = []uint{4, 8, 16, 24, 32, 48}
	E1Sides  = []int{8, 32, 128}
)

// MeasureMin runs one bit-serial row minimum on an n x n, h-bit PPA over
// random data and returns the communication cost.
func MeasureMin(n int, h uint, rngSeed int64) ppa.Metrics {
	m := ppa.New(n, h)
	a := par.New(m)
	rng := rand.New(rand.NewSource(rngSeed))
	data := make([]ppa.Word, n*n)
	for i := range data {
		data[i] = ppa.Word(rng.Int63n(int64(ppa.Infinity(h)) + 1))
	}
	src := a.FromSlice(data)
	head := a.Col().EqConst(ppa.Word(n - 1))
	before := m.Metrics()
	a.Min(src, ppa.West, head)
	return m.Metrics().Sub(before)
}

// RunE1 measures the bit-serial min: Θ(h) bus transactions, independent
// of the array side n.
func RunE1() Table {
	t := Table{
		ID:     "E1",
		Title:  "bit-serial min()/selected_min() cost",
		Claim:  "§3: the minimum of h-bit values on a bus cluster costs O(h) cycles, independent of cluster size",
		Header: []string{"h (bits)", "n", "wired-OR cycles", "bus cycles", "comm total", "model h+2"},
	}
	for _, h := range E1Widths {
		for _, n := range E1Sides {
			m := MeasureMin(n, h, seed)
			t.AddRow(h, n, m.WiredOrCycles, m.BusCycles, m.CommCycles(), int64(h)+2)
		}
	}
	t.Notes = append(t.Notes,
		"comm total must be flat in n and equal to the h+2 model in every row")
	return t
}

// E2Diameters is the p sweep of experiment E2 (n is fixed at E2N).
var (
	E2N         = 32
	E2Diameters = []int{1, 2, 4, 8, 16, 31}
	E2Widths    = []uint{8, 16, 32}
)

// RunE2 measures full MCP cost against the path-length bound p and the
// word width h: Θ(p·h).
func RunE2() Table {
	t := Table{
		ID:     "E2",
		Title:  "MCP total cost vs diameter p and word width h",
		Claim:  "§3/§4: the MCP runs p DP rounds of Θ(h) cycles each — total Θ(p·h)",
		Header: []string{"n", "p", "h", "iterations", "wired-OR", "bus", "comm total", "model 2ph+8p+2"},
	}
	for _, p := range E2Diameters {
		g := graph.GenDiameter(E2N, p)
		for _, h := range E2Widths {
			r, err := core.Solve(g, 0, core.Options{Bits: h})
			if err != nil {
				panic(fmt.Sprintf("bench E2: %v", err))
			}
			model := int64(p)*(2*int64(h)+8) + 2
			t.AddRow(E2N, p, h, r.Iterations, r.Metrics.WiredOrCycles,
				r.Metrics.BusCycles, r.Metrics.CommCycles(), model)
		}
	}
	t.Notes = append(t.Notes,
		"iterations = p exactly (p-1 productive rounds + 1 detection round)",
		"per round: 2h wired-OR + 7 bus + 1 global-OR; init adds 2 bus",
		"model column 2ph+8p+2 counts all three communication kinds")
	return t
}

// E3Sides is the n sweep of experiment E3.
var E3Sides = []int{4, 8, 16, 32, 64}

// RunE3 compares the four architectures (and sequential Bellman-Ford) on
// the same random workloads.
func RunE3() Table {
	t := Table{
		ID:    "E3",
		Title: "architecture comparison on random graphs",
		Claim: "§1/§4: PPA delivers the same computational complexity as the CM hypercube and the GCN; reconfigurable buses beat the plain mesh",
		Header: []string{"n", "h", "iters", "PPA comm", "GCN comm", "cube router", "cube bit-serial",
			"mesh shifts", "BF relaxations"},
	}
	for _, n := range E3Sides {
		g := graph.GenRandomConnected(n, 0.3, 9, seed+int64(n))
		dest := n / 2
		pparRes, err := core.Solve(g, dest, core.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench E3 ppa: %v", err))
		}
		h := pparRes.Bits
		gcnRes, err := gcn.SolveMCP(g, dest, gcn.Options{Bits: h})
		if err != nil {
			panic(fmt.Sprintf("bench E3 gcn: %v", err))
		}
		cubeRes, err := hypercube.SolveMCP(g, dest, hypercube.Options{Bits: h})
		if err != nil {
			panic(fmt.Sprintf("bench E3 cube: %v", err))
		}
		cubeBit, err := hypercube.SolveMCP(g, dest, hypercube.Options{Bits: h, BitSerialRouter: true})
		if err != nil {
			panic(fmt.Sprintf("bench E3 cube bit-serial: %v", err))
		}
		meshRes, err := mesh.SolveMCP(g, dest, mesh.Options{Bits: h})
		if err != nil {
			panic(fmt.Sprintf("bench E3 mesh: %v", err))
		}
		bf, err := graph.BellmanFord(g, dest)
		if err != nil {
			panic(fmt.Sprintf("bench E3 bf: %v", err))
		}
		t.AddRow(n, h, pparRes.Iterations,
			pparRes.Metrics.CommCycles(), gcnRes.Metrics.CommCycles(),
			cubeRes.Metrics.RouterCycles, cubeBit.Metrics.RouterCycles,
			meshRes.Metrics.ShiftSteps, bf.Relaxations)
	}
	t.Notes = append(t.Notes,
		"units differ by column (bit-wide bus cycles vs word-wide router cycles vs word shifts);",
		"'cube bit-serial' charges h cycles per word exchange (CM-1's links) for a like-for-like",
		"bit-cycle comparison with the PPA. the paper's parity claim is about growth: PPA/GCN grow",
		"with p*h, the hypercube with p*h*log n bit-serial (p*log n word-wide), the mesh with p*n")
	return t
}

// E4Sides is the n sweep of experiment E4.
var E4Sides = []int{4, 8, 16, 32, 64, 128, 256}

// RunE4 measures a single one-to-all row broadcast: one bus cycle on the
// PPA regardless of n, n-1 shift steps on the plain mesh.
func RunE4() Table {
	t := Table{
		ID:     "E4",
		Title:  "broadcast micro-benchmark: reconfigurable bus vs shifts",
		Claim:  "§1: the segmented bus short-circuits intermediate nodes, so distance no longer costs cycles",
		Header: []string{"n", "PPA bus cycles", "mesh shift steps", "speedup"},
	}
	for _, n := range E4Sides {
		ppaCycles, meshSteps := MeasureBroadcast(n)
		t.AddRow(n, ppaCycles, meshSteps, fmt.Sprintf("%dx", meshSteps/ppaCycles))
	}
	return t
}

// MeasureBroadcast performs one row-0-to-all-rows broadcast on both
// fabrics and returns (PPA bus cycles, mesh shift steps).
func MeasureBroadcast(n int) (int64, int64) {
	// PPA: one segmented-bus transaction.
	m := ppa.New(n, 8)
	a := par.New(m)
	v := a.Zeros()
	a.Broadcast(v, ppa.South, a.Row().EqConst(0))
	ppaCycles := m.Metrics().BusCycles

	// Mesh: n-1 shifts with per-row capture.
	m2 := ppa.New(n, 8)
	a2 := par.New(m2)
	src := a2.Zeros()
	moving := src.Copy()
	dst := src.Copy()
	row := a2.Row()
	for k := 1; k < n; k++ {
		moving = a2.Shift(moving, ppa.South)
		target := row.EqConst(ppa.Word(k))
		a2.Where(target, func() {
			dst.Assign(moving)
		})
	}
	return ppaCycles, m2.Metrics().ShiftSteps
}

// E5Cases are the workloads of experiment E5.
var E5Cases = []struct {
	Name string
	N    int
	Gen  func(n int) *graph.Graph
}{
	{"chain", 8, func(n int) *graph.Graph { return graph.GenChain(n, 2) }},
	{"star", 9, func(n int) *graph.Graph { return graph.GenStar(n, 3) }},
	{"random", 10, func(n int) *graph.Graph { return graph.GenRandomConnected(n, 0.3, 9, seed) }},
	{"sparse", 12, func(n int) *graph.Graph { return graph.GenRandom(n, 0.15, 9, seed+1) }},
}

// RunE5 validates the PPC-language implementation against the native
// solver: identical SOW/PTN and identical bus traffic.
func RunE5() Table {
	t := Table{
		ID:     "E5",
		Title:  "PPC-language program vs native Go implementation",
		Claim:  "§1/§2: the algorithm was implemented in Polymorphic Parallel C and validated through simulation",
		Header: []string{"workload", "n", "iters", "native comm", "PPC comm", "outputs equal", "cycles equal"},
	}
	for _, c := range E5Cases {
		g := c.Gen(c.N)
		dest := c.N - 1
		native, err := core.Solve(g, dest, core.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench E5 native: %v", err))
		}
		ppcRes, ppcMetrics, err := RunPaperPPC(g, dest, native.Bits)
		if err != nil {
			panic(fmt.Sprintf("bench E5 ppc: %v", err))
		}
		outEqual := true
		for i := 0; i < c.N; i++ {
			if native.Dist[i] != ppcRes.Dist[i] || native.Next[i] != ppcRes.Next[i] {
				outEqual = false
			}
		}
		cycEqual := native.Metrics.BusCycles == ppcMetrics.BusCycles &&
			native.Metrics.WiredOrCycles == ppcMetrics.WiredOrCycles &&
			native.Metrics.GlobalOrOps == ppcMetrics.GlobalOrOps
		t.AddRow(c.Name, c.N, native.Iterations,
			native.Metrics.CommCycles(), ppcMetrics.CommCycles(),
			outEqual, cycEqual)
	}
	return t
}

// RunPaperPPC executes the paper's PPC program for g/dest on an h-bit
// machine and returns the decoded result and machine metrics. By default
// the program runs compiled on the bytecode VM; pass
// ppclang.WithReference(true) to run the tree-walking oracle instead
// (both produce identical metrics by construction).
func RunPaperPPC(g *graph.Graph, dest int, h uint, opts ...ppclang.Option) (*graph.Result, ppa.Metrics, error) {
	// Parse once: reusing the *Program across calls keeps the bytecode
	// cache warm (ppclang caches compiled code per Program identity).
	prog, err := paperProg()
	if err != nil {
		return nil, ppa.Metrics{}, err
	}
	n := g.N
	m := ppa.New(n, h)
	arr := par.New(m)
	in, err := ppclang.NewExecutor(prog, arr, opts...)
	if err != nil {
		return nil, ppa.Metrics{}, err
	}
	inf := m.Inf()
	w := make([]ppa.Word, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch wt := g.At(i, j); {
			case i == j:
				w[i*n+j] = 0
			case wt == graph.NoEdge:
				w[i*n+j] = inf
			default:
				w[i*n+j] = ppa.Word(wt)
			}
		}
	}
	if err := in.SetParallelInt("W", w); err != nil {
		return nil, ppa.Metrics{}, err
	}
	if err := in.SetInt("d", int64(dest)); err != nil {
		return nil, ppa.Metrics{}, err
	}
	if _, err := in.Call("minimum_cost_path"); err != nil {
		return nil, ppa.Metrics{}, err
	}
	sow, err := in.GetParallelInt("SOW")
	if err != nil {
		return nil, ppa.Metrics{}, err
	}
	ptn, err := in.GetParallelInt("PTN")
	if err != nil {
		return nil, ppa.Metrics{}, err
	}
	res := &graph.Result{Dest: dest, Dist: make([]int64, n), Next: make([]int, n)}
	for i := 0; i < n; i++ {
		s := sow[dest*n+i]
		switch {
		case i == dest:
			res.Dist[i] = 0
			res.Next[i] = -1
		case s == inf:
			res.Dist[i] = graph.NoEdge
			res.Next[i] = -1
		default:
			res.Dist[i] = int64(s)
			res.Next[i] = int(ptn[dest*n+i])
		}
	}
	return res, m.Metrics(), nil
}

// Experiment is one entry of DESIGN.md's experiment index: its id and
// the deterministic runner that produces its table.
type Experiment struct {
	ID  string
	Run func() Table
}

// Experiments is the experiment index in order: the paper-claim
// experiments E1-E5 and the extensions E6-E9. RunAll and cmd/benchtab's
// -only both iterate it.
var Experiments = []Experiment{
	{"E1", RunE1},
	{"E2", RunE2},
	{"E3", RunE3},
	{"E4", RunE4},
	{"E5", RunE5},
	{"E6", RunE6},
	{"E7", RunE7},
	{"E8", RunE8},
	{"E9", RunE9},
}

// RunAll executes every experiment of Experiments in order.
func RunAll() []Table {
	tables := make([]Table, len(Experiments))
	for i, e := range Experiments {
		tables[i] = e.Run()
	}
	return tables
}
