// Package core implements the paper's contribution: the parallel Minimum
// Cost Path algorithm on the Polymorphic Processor Array (Baglietto,
// Maresca, Migliardi — IPPS 1998).
//
// The n-vertex problem maps onto an n x n PPA with PE (i, j) holding the
// weight w_ij of the edge i -> j. Each DP round broadcasts the current
// SOW row down the columns, adds W, takes the bit-serial minimum along
// each row, extracts the arg-min column index with selected_min, and
// writes the new SOW/PTN back to row d via the diagonal. The loop stops
// when the global-OR line reports that no SOW entry of row d changed —
// after max(1, p) rounds, where p is the largest fewest-edge MCP length
// to the destination (p-1 productive rounds after the 1-edge seed, plus
// one detecting round).
//
// Total cost: Θ(p·h) wired-OR cycles plus Θ(p) word broadcasts on an
// h-bit machine — the complexity the paper establishes and experiments
// E1/E2 measure.
package core

import (
	"context"
	"fmt"
	"math"

	"ppamcp/internal/graph"
	"ppamcp/internal/par"
	"ppamcp/internal/ppa"
	"ppamcp/internal/virt"
)

// Options tunes Solve.
type Options struct {
	// Bits is the machine word width h. Zero selects the smallest width
	// that can represent every finite path cost (graph.BitsNeeded).
	Bits uint
	// Workers is the simulator's goroutine fan-out for independent bus
	// rings (results are identical for any value; see ppa.WithWorkers).
	Workers int
	// PaperInit reproduces the paper's statement 5 verbatim
	// (`where (ROW == d) SOW = W`), which loads the d-th *row* of W where
	// the DP needs the d-th *column*. It is only correct on symmetric
	// graphs; the default initialization performs the corrected
	// column-to-row move (two extra bus cycles). See DESIGN.md, deviation 2.
	PaperInit bool
	// MaxIterations bounds the DP loop; zero means n+1 (a cold solve
	// provably ends within max(1, p) <= n rounds on non-negative weights,
	// p as in the package comment, so hitting the bound reports an
	// internal error).
	MaxIterations int
	// SwitchOnlyBus computes the bit-serial minima with plain segmented
	// broadcasts only (par.MinViaSwitches) instead of the wired-OR bus
	// mode — the weaker hardware reading of the paper's or(), under which
	// the printed min() listing is exact (DESIGN.md deviation 3a). Each
	// min costs 2h+2 bus cycles instead of h wired-OR + 2 bus cycles;
	// results are identical (ablation E7).
	SwitchOnlyBus bool
	// PhysicalSide, when nonzero and smaller than n, runs the algorithm
	// block-mapped on a PhysicalSide x PhysicalSide machine (virt.Machine),
	// lifting the paper's one-element-per-PE assumption. n must be a
	// multiple of PhysicalSide. Results are identical; communication
	// cycles scale by k = n/PhysicalSide (the virtualization ablation).
	PhysicalSide int
	// ReferenceKernels runs the machine program (runDP) on the
	// interpretive par kernels instead of the fused host lane
	// (solveFused), which every other healthy, unobserved session takes
	// on any bus model and geometry. Results, cost-model counters and
	// observer events are identical either way: this is the
	// debugging/ablation knob and the oracle the fused lane is pinned to.
	ReferenceKernels bool
}

// Result is the outcome of a PPA MCP computation: the host-side solution
// plus the abstract machine cost of producing it.
type Result struct {
	graph.Result
	// Metrics is the simulator's cycle accounting for this solve,
	// including the corrected initialization (Session setup — coordinate
	// masks and weight loading, which cost no communication — is
	// amortized and excluded).
	Metrics ppa.Metrics
	// Bits is the word width h the machine ran with.
	Bits uint
}

// Solve runs the PPA MCP algorithm for destination dest on g: a one-shot
// Session (NewSession, SolveContext, Close).
func Solve(g *graph.Graph, dest int, opt Options) (*Result, error) {
	if dest < 0 || dest >= g.N {
		return nil, fmt.Errorf("core: destination %d out of range [0,%d)", dest, g.N)
	}
	s, err := NewSession(g, opt)
	if err != nil {
		return nil, err
	}
	// One-shot solve on an internally built machine: stop any ring
	// workers now rather than leaving them to the finalizer.
	defer s.Close()
	return s.SolveContext(context.Background(), dest)
}

// SolveOn runs the algorithm on a caller-supplied fabric — the entry
// point for fault-injection studies (build a ppa.Machine, InjectFault,
// then SolveOn) and for custom fabrics. The fabric's side must equal the
// vertex count and its word width must fit the problem; Options.Bits,
// Workers and PhysicalSide are ignored here (they describe fabric
// construction, which the caller has already done).
func SolveOn(m ppa.Fabric, g *graph.Graph, dest int, opt Options) (*Result, error) {
	s, err := NewSessionOn(m, g, opt)
	if err != nil {
		return nil, err
	}
	return s.Solve(dest)
}

// Session amortizes machine construction, weight loading and the
// coordinate masks across many solves on the same graph — the
// routing-table pattern, where one destination is solved per vertex. A
// Session is not safe for concurrent use (it owns one simulated machine);
// SolveAllPairs gives each worker goroutine its own.
type Session struct {
	g   *graph.Graph
	m   ppa.Fabric
	a   *par.Array
	opt Options
	// phys is the physical side of a block-mapped fabric (virt.Machine),
	// 0 on a direct machine: the geometry term of dpCost.
	phys int

	row, col *par.Var
	diag     *par.Bool
	rowHead  *par.Bool
	W        *par.Var

	// wbuf is the reusable host staging buffer for Reload: converting a
	// new weight matrix to machine words must not allocate once the
	// session is warm (the session-pool hot path of internal/serve).
	wbuf []ppa.Word

	// sc is the per-destination host scratch (sweep.go), allocated on
	// the first solve and reused for every destination thereafter. Its
	// in-edge adjacency mirrors the weights at one session version, so
	// Reload and effective Updates (which bump version) mark it stale
	// and the next solve rebuilds it in place.
	sc *scratch

	// Incremental re-solve state (update.go / resolve.go): version counts
	// effective Update batches, warm retains per-destination solutions for
	// Resolve to warm-start from, incLog records the weight increases that
	// can invalidate them (entries older than logFloor have been
	// truncated, so snapshots from before logFloor are unusable). ownG
	// marks s.g as session-owned — Update clones the caller's graph before
	// the first mutation. upIdx/upVals stage the sparse weight DMA.
	version  uint64
	logFloor uint64
	incLog   []incEntry
	warm     map[int]*warmDest
	ownG     bool
	upIdx    []int
	upVals   []ppa.Word

	// destSeen is the reusable duplicate-destination bitmap of
	// checkDests (sweep.go) — sweep validation must not allocate on the
	// steady-state path.
	destSeen []uint64
}

// NewSession builds a session with a fresh machine (Options as in Solve).
func NewSession(g *graph.Graph, opt Options) (*Session, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	h := opt.Bits
	if h == 0 {
		h = g.BitsNeeded()
	}
	if h > ppa.MaxBits {
		return nil, fmt.Errorf("core: word width %d exceeds %d bits", h, ppa.MaxBits)
	}
	n := g.N
	if int64(n-1) > int64(ppa.Infinity(h)) {
		return nil, fmt.Errorf("core: %d-bit words cannot hold vertex indices up to %d", h, n-1)
	}
	var mopts []ppa.Option
	if opt.Workers > 1 {
		mopts = append(mopts, ppa.WithWorkers(opt.Workers))
	}
	var m ppa.Fabric
	if opt.PhysicalSide > 0 && opt.PhysicalSide < n {
		vm, err := virt.New(n, opt.PhysicalSide, h, mopts...)
		if err != nil {
			return nil, err
		}
		m = vm
	} else {
		m = ppa.New(n, h, mopts...)
	}
	s, err := NewSessionOn(m, g, opt)
	if err != nil {
		if c, ok := m.(interface{ Close() }); ok {
			c.Close()
		}
		return nil, err
	}
	return s, nil
}

// NewSessionOn builds a session on a caller-supplied fabric.
func NewSessionOn(m ppa.Fabric, g *graph.Graph, opt Options) (*Session, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.N
	if m.N() != n {
		return nil, fmt.Errorf("core: fabric side %d != vertex count %d", m.N(), n)
	}
	h := m.Bits()
	if int64(n-1) > int64(ppa.Infinity(h)) {
		return nil, fmt.Errorf("core: %d-bit words cannot hold vertex indices up to %d", h, n-1)
	}
	w, err := loadWeights(g, h)
	if err != nil {
		return nil, err
	}
	a := par.New(m)
	s := &Session{
		g: g, m: m, a: a, opt: opt,
		row: a.Row(), col: a.Col(),
	}
	if vm, ok := m.(*virt.Machine); ok {
		s.phys = vm.PhysicalSide()
	}
	s.diag = s.row.Eq(s.col)
	s.rowHead = s.col.EqConst(ppa.Word(n - 1)) // min() clusters: whole rows
	s.W = a.FromSlice(w)
	return s, nil
}

// Fabric returns the session's machine (for metrics inspection or fault
// injection between solves).
func (s *Session) Fabric() ppa.Fabric { return s.m }

// Close releases resources tied to the session's fabric — today the
// machine's persistent ring workers (see ppa.Machine.Close). Optional:
// an abandoned session's workers are reclaimed by a finalizer; Close
// makes the shutdown deterministic (tests, session pools).
func (s *Session) Close() {
	if c, ok := s.m.(interface{ Close() }); ok {
		c.Close()
	}
}

// N returns the vertex count (= array side) the session was built for.
func (s *Session) N() int { return s.m.N() }

// Bits returns the machine word width h the session runs with.
func (s *Session) Bits() uint { return s.m.Bits() }

// Options returns the options the session was built with. Callers that
// recycle sessions (internal/serve's pool) key interchangeability on the
// fabric-relevant fields — two sessions are substitutes only when N, Bits
// and these options agree.
func (s *Session) Options() Options { return s.opt }

// Reload replaces the session's graph with a new one of the same vertex
// count, reusing the fabric, the coordinate masks and the weight plane's
// storage — no re-allocation. This is what makes pooling sessions across
// requests profitable: the expensive setup (machine construction, masks)
// survives, only the weight DMA is repeated. The new graph must fit the
// session's word width h; on error the session keeps its old graph.
func (s *Session) Reload(g *graph.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if g.N != s.m.N() {
		return fmt.Errorf("core: Reload vertex count %d != session size %d", g.N, s.m.N())
	}
	if s.wbuf == nil {
		s.wbuf = make([]ppa.Word, g.N*g.N)
	}
	if err := loadWeightsInto(s.wbuf, g, s.m.Bits()); err != nil {
		return err
	}
	s.W.Load(s.wbuf)
	s.g = g
	s.ownG = false
	s.invalidateWarm()
	return nil
}

// Solve runs the DP for one destination. Result.Metrics covers only this
// solve (the fabric's counters keep accumulating across the session).
func (s *Session) Solve(dest int) (*Result, error) {
	return s.SolveContext(context.Background(), dest)
}

// SolveContext is Solve with cooperative cancellation: the context is
// checked between DP iterations, so a caller whose deadline has passed (or
// whose client hung up) releases the session after at most one round
// instead of pinning it for the rest of the computation. On cancellation
// all machine temporaries are returned to the session's pools and the
// context's error is returned.
func (s *Session) SolveContext(ctx context.Context, dest int) (*Result, error) {
	n := s.m.N()
	if dest < 0 || dest >= n {
		return nil, fmt.Errorf("core: destination %d out of range [0,%d)", dest, n)
	}
	return s.solve(ctx, dest, false)
}

// solve runs one destination's DP and builds its Result — the one
// dispatch behind every MCP entry point (Solve, SolveSweep, Resolve,
// ResolveSweep): healthy, unobserved fabrics run the fused lane
// (solveFused, sweep.go), the rest the machine program (solveProgram). A
// cold solve (warm false) starts from the 1-edge seeds of statements 4-7;
// a warm one from the distances Resolve staged in the scratch's sow.
func (s *Session) solve(ctx context.Context, dest int, warm bool) (*Result, error) {
	sc := s.scratch()
	start := s.m.Metrics()
	var iterations int
	var err error
	pm := s.fusedMachine()
	if pm != nil {
		iterations, err = s.solveFused(ctx, pm, dest, warm)
	} else {
		iterations, err = s.solveProgram(ctx, dest, warm)
	}
	if err != nil {
		return nil, err
	}
	if pm != nil || warm {
		// The fused lane tracks no PTN, and a warm program run's PTN
		// follows its own trajectory: both take the cold DP's canonical
		// next pointers from the converged distances (resolve.go).
		s.canonicalNext(dest)
	}
	return s.newResult(dest, sc.sow, sc.next, iterations, s.m.Metrics().Sub(start)), nil
}

// newResult builds a Result from a solved row: sow holds machine-word
// distances to dest (MAXINT for unreachable vertices), next the successor
// of each vertex. dest and unreachable vertices report graph.NoEdge/-1
// per graph.Result, whatever the vectors hold there.
func (s *Session) newResult(dest int, sow []ppa.Word, next []int, iterations int, met ppa.Metrics) *Result {
	n := s.m.N()
	h := s.m.Bits()
	inf := ppa.Infinity(h)
	res := &Result{
		Result: graph.Result{
			Dest:       dest,
			Dist:       make([]int64, n),
			Next:       make([]int, n),
			Iterations: iterations,
		},
		Metrics: met,
		Bits:    h,
	}
	for i := 0; i < n; i++ {
		switch {
		case i == dest:
			res.Dist[i] = 0
			res.Next[i] = -1
		case sow[i] == inf:
			res.Dist[i] = graph.NoEdge
			res.Next[i] = -1
		default:
			res.Dist[i] = int64(sow[i])
			res.Next[i] = next[i]
		}
	}
	return res
}

// maxIter is the DP round bound (Options.MaxIterations, default n+1).
func (s *Session) maxIter() int {
	if s.opt.MaxIterations > 0 {
		return s.opt.MaxIterations
	}
	return s.m.N() + 1
}

// solveProgram runs one destination as the real machine program — the
// lane for faulty, observed, PaperInit and ReferenceKernels sessions, and
// the oracle the fused lane is pinned to.
// A cold solve runs the initialization statements 4-7 on the machine; a
// warm one DMAs the staged seed into row d (uncharged, like Reload). Row d
// of SOW and PTN is copied out to the scratch.
func (s *Session) solveProgram(ctx context.Context, dest int, warm bool) (int, error) {
	a, sc := s.a, s.scratch()
	n := s.m.N()
	rowIsD := s.row.EqConst(ppa.Word(dest))
	var colIsD *par.Bool
	if !warm {
		colIsD = s.col.EqConst(ppa.Word(dest))
	}
	notD := rowIsD.Not()
	SOW := a.Zeros()
	PTN := a.Zeros()
	MinSOW := a.Zeros() // zero-initialized global: keeps SOW[d][d] pinned to 0
	OldSOW := a.Zeros()
	if warm {
		// PTN's zero seed is fine: the loop only ever writes it, and
		// canonicalNext supersedes its output.
		SOW.LoadRow(dest, sc.sow)
	} else {
		s.coldInit(dest, rowIsD, colIsD, SOW, PTN)
		colIsD.Release()
	}

	// Step 2 — RMCP computation (statements 8-20).
	iterations, err := s.runDP(ctx, s.maxIter(), rowIsD, notD, SOW, PTN, MinSOW, OldSOW)
	if err == nil {
		for i := 0; i < n; i++ {
			sc.sow[i] = SOW.At(dest, i)
			sc.next[i] = int(PTN.At(dest, i))
		}
	}
	OldSOW.Release()
	MinSOW.Release()
	PTN.Release()
	SOW.Release()
	notD.Release()
	rowIsD.Release()
	return iterations, err
}

// coldInit is step 1 of the paper's program (statements 4-7). The DP
// needs SOW[d][j] = w_jd (cost of the 1-edge path j -> d), i.e. column d
// of W moved onto row d; PTN row d starts at d.
func (s *Session) coldInit(dest int, rowIsD, colIsD *par.Bool, SOW, PTN *par.Var) {
	a, W := s.a, s.W
	if s.opt.PaperInit {
		a.Where(rowIsD, func() {
			SOW.Assign(W)
			PTN.AssignConst(ppa.Word(dest))
		})
	} else {
		acrossRows := a.Broadcast(W, ppa.East, colIsD)         // (j, c) <- w_jd
		ontoRowD := a.Broadcast(acrossRows, ppa.South, s.diag) // (r, j) <- w_jd
		a.Where(rowIsD, func() {
			SOW.Assign(ontoRowD)
			PTN.AssignConst(ppa.Word(dest))
		})
		ontoRowD.Release()
		acrossRows.Release()
	}
	// SOW[d][d] = 0: the empty path from d to itself (w_dd is 0 on the
	// machine copy of W, so the paper's init gives the same).
	atDD := rowIsD.And(colIsD)
	a.Where(atDD, func() {
		SOW.AssignConst(0)
	})
	atDD.Release()
}

// runDP runs the RMCP iteration (statements 8-20) to convergence on
// already-initialized solution planes — the machine-program loop of cold
// and warm solves alike, which differ only in how SOW and PTN are seeded. Early exits (cancellation,
// non-convergence) return with the error set and all loop temporaries
// released — a cancelled request must not leak pool storage when its
// session is reused; the caller still owns the planes it passed in.
func (s *Session) runDP(ctx context.Context, maxIter int, rowIsD, notD *par.Bool, SOW, PTN, MinSOW, OldSOW *par.Var) (int, error) {
	a, opt := s.a, s.opt
	col, diag, rowHead, W := s.col, s.diag, s.rowHead, s.W
	iterations := 0
	var loopErr error
	for {
		if err := ctx.Err(); err != nil {
			loopErr = err
			break
		}
		iterations++
		if iterations > maxIter {
			loopErr = fmt.Errorf("core: DP did not converge within %d rounds", maxIter)
			break
		}

		// Statement 10: SOW = broadcast(SOW, SOUTH, ROW == d) + W,
		// assigned where ROW != d. PE (i, j) now holds SOW[j->d] + w_ij.
		down := a.Broadcast(SOW, ppa.South, rowIsD)
		cand := down.AddSat(W)
		down.Release()
		a.Where(notD, func() {
			SOW.Assign(cand)
		})
		cand.Release()

		// Statement 11: MIN_SOW = min(SOW, WEST, COL == n-1).
		var rowMin *par.Var
		if opt.SwitchOnlyBus {
			rowMin = a.MinViaSwitches(SOW, ppa.West, rowHead)
		} else {
			rowMin = a.Min(SOW, ppa.West, rowHead)
		}
		a.Where(notD, func() {
			MinSOW.Assign(rowMin)
		})
		// Statement 12: PTN = selected_min(COL, WEST, COL == n-1,
		// MIN_SOW == SOW): the smallest column index attaining the minimum.
		sel := rowMin.Eq(SOW)
		rowMin.Release()
		var argMin *par.Var
		if opt.SwitchOnlyBus {
			argMin = a.SelectedMinViaSwitches(col, ppa.West, rowHead, sel)
		} else {
			argMin = a.SelectedMin(col, ppa.West, rowHead, sel)
		}
		sel.Release()
		a.Where(notD, func() {
			PTN.Assign(argMin)
		})
		argMin.Release()

		// Statements 14-19: fold the per-row results back into row d via
		// the diagonal and update PTN only where the cost improved.
		newRow := a.Broadcast(MinSOW, ppa.South, diag)
		newPTN := a.Broadcast(PTN, ppa.South, diag)
		a.Where(rowIsD, func() {
			OldSOW.Assign(SOW)
			SOW.Assign(newRow)
			changed := SOW.Ne(OldSOW)
			a.Where(changed, func() {
				PTN.Assign(newPTN)
			})
			changed.Release()
		})
		newPTN.Release()
		newRow.Release()

		// Statement 20: while at least one SOW in row d has changed.
		ne := SOW.Ne(OldSOW)
		pred := rowIsD.And(ne)
		done := a.None(pred)
		pred.Release()
		ne.Release()
		if done {
			break
		}
	}
	return iterations, loopErr
}

// loadWeights converts the host matrix to machine words: NoEdge becomes
// the h-bit MAXINT, the diagonal becomes 0 (the standard DP convention —
// see DESIGN.md), and any finite weight or worst-case path cost that
// collides with MAXINT is an error.
func loadWeights(g *graph.Graph, h uint) ([]ppa.Word, error) {
	w := make([]ppa.Word, g.N*g.N)
	if err := loadWeightsInto(w, g, h); err != nil {
		return nil, err
	}
	return w, nil
}

// loadWeightsInto is loadWeights writing into caller-owned storage (the
// allocation-free Reload path). len(dst) must be g.N*g.N.
func loadWeightsInto(dst []ppa.Word, g *graph.Graph, h uint) error {
	n := g.N
	inf := ppa.Infinity(h)
	// Overflow-safe form of (n-1)*wt >= inf: a worst-case simple path
	// could saturate and masquerade as "no path". One flat pass in
	// row-major order; the diagonal is exempt and zeroed afterwards.
	maxW := int64(math.MaxInt64)
	if n > 1 {
		maxW = (int64(inf) - 1) / int64(n-1)
	}
	for k, wt := range g.W {
		switch {
		case wt == graph.NoEdge:
			dst[k] = inf
		case wt > maxW && k%(n+1) != 0:
			return fmt.Errorf(
				"core: %d-bit words cannot distinguish worst-case path cost (%d * %d) from MAXINT; raise Options.Bits",
				h, n-1, wt)
		default:
			dst[k] = ppa.Word(wt)
		}
	}
	for i := 0; i < n*n; i += n + 1 {
		dst[i] = 0
	}
	return nil
}

// PredictedCost returns the cost of one solve of an n-vertex graph on an
// h-bit fabric that converges after iters DP rounds: the machine program's
// init charge plus iters round charges (dpCost), in every ppa.Metrics
// field. phys is the physical side m of a block-mapped fabric
// (virt.Machine, k = n/m logical PEs per physical PE along each axis), or
// 0 for a direct n x n machine. warm prices a Resolve that warm-starts
// from a retained solution, paperInit the paper's verbatim initialization
// (cold solves only) and switchOnly the plain-broadcast minima of
// Options.SwitchOnlyBus. Measured Metrics equal it on every lane and
// geometry; experiments use it to certify the Θ(p·h) complexity claim
// and the virtualization cost law.
func PredictedCost(n, phys int, h uint, iters int, warm, paperInit, switchOnly bool) ppa.Metrics {
	total, round := dpCost(n, phys, h, warm, paperInit, switchOnly)
	for k := 0; k < iters; k++ {
		total = total.Add(round)
	}
	return total
}

// dpCost is the machine program's cost schedule, stated once: init is
// what a solve charges before its first DP round, round what each round
// (statements 10-20) charges, on the geometry PredictedCost describes.
// The fused lane charges exactly this and PredictedCost sums it.
//
// A cold init (statements 4-7) issues seven instructions: ROW==d, COL==d,
// ¬(ROW==d), the SOW and PTN stores, ROW==d ∧ COL==d and SOW[d][d]=0.
// Unless paperInit, two broadcasts move column d of W onto row d. A warm
// seed issues only ROW==d and ¬(ROW==d).
//
// A round issues three broadcasts (statement 10 and the two diagonal
// folds), one global-OR and two bit-serial minima (Min and SelectedMin)
// priced by par.MinCost. Its own instructions are eleven: the add and
// store of statement 10, the MinSOW store and the Eq of 11, the PTN store
// of 12, four stores and compares in 14-19 and the Ne and And of 20.
// Each minimum adds 5h+2: h bit-plane gathers, four per plane, the enable
// set-up and the result copy. On the switch-only bus (par.MinSwitchCost)
// each plane's OR adds four more.
func dpCost(n, phys int, h uint, warm, paperInit, switchOnly bool) (init, round ppa.Metrics) {
	wiredOrPerMin, busPerMin := par.MinCost(h)
	instrPerMin := 5*int64(h) + 2
	if switchOnly {
		wiredOrPerMin, busPerMin = par.MinSwitchCost(h)
		instrPerMin += 4 * int64(h)
	}
	initInstr, initBus := int64(7), int64(0)
	if warm {
		initInstr = 2
	} else if !paperInit {
		initBus = 2
	}
	init = price(n, phys, initInstr, initBus, 0, 0)
	round = price(n, phys, 11+2*instrPerMin, 3+2*busPerMin, 2*wiredOrPerMin, 1)
	return init, round
}

// price is the cost of instr program instructions and bus broadcasts,
// wired-OR and global-OR transactions of an n x n program on its fabric.
// On a direct machine each transaction is one cycle and each instruction
// runs on all n² PEs. A block-mapped fabric (virt.Machine, physical side
// phys, k = n/phys) runs every transaction as k plane passes: k physical
// bus or wired-OR cycles, plus 2k one-bit stitch shifts per wired-OR and
// the local scan and fill instructions its chargeLocal issues on the
// phys² physical PEs — 2k² per broadcast, k(3k+2) per wired-OR and k² per
// global-OR (virt/packed.go). Program instructions still count n² PE ops.
func price(n, phys int, instr, bus, wiredOr, globalOr int64) ppa.Metrics {
	c := ppa.Metrics{
		BusCycles:     bus,
		WiredOrCycles: wiredOr,
		GlobalOrOps:   globalOr,
		Instructions:  instr,
		PEOps:         instr * int64(n) * int64(n),
	}
	if phys == 0 {
		return c
	}
	k := int64(n / phys)
	local := 2*k*k*bus + k*(3*k+2)*wiredOr + k*k*globalOr
	c.BusCycles *= k
	c.WiredOrCycles *= k
	c.ShiftSteps = 2 * k * wiredOr
	c.Instructions += local
	c.PEOps += local * int64(phys) * int64(phys)
	return c
}
