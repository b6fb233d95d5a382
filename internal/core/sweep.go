package core

import (
	"context"
	"fmt"

	"ppamcp/internal/ppa"
)

// This file is the fused DP lane and the batched multi-destination sweep
// driver built on it.
//
// The fused lane (solveFused) is the one host execution of the paper's
// per-destination DP, taken by cold solves, warm re-solves and sweeps
// alike on every healthy plain machine (fusedMachine). It computes each
// round (statements 10-20) as an O(n²) host scan while every fabric
// transaction of the machine program (runDP) is shadow-charged in order,
// under the same discipline as par's fused reductions (par/fused.go):
// each broadcast is charged through ppa.Machine.ChargeBroadcast and each
// wired-OR of the bit-serial minima through ChargeWiredOr, with the same
// switch configurations (the attaining-lane sets the walks would leave
// behind are rebuilt, so observer Opens counts match); the statement-20
// predicate is resolved by a real GlobalOrBits; and every SIMD
// instruction of the program is counted. Metrics, Iterations and the
// observer event stream are therefore byte-identical to the machine
// program, pinned by the fused/reference parity tests.
//
// What makes the scan cheap is liveness: between rounds the DP's only
// live machine state is row d of SOW. Every broadcast the program issues
// reads either row d (open = ROW==d) or the diagonal (which reflects row
// d's update one statement later), and every store to rows != d is
// overwritten before it is next read. The lane therefore keeps the DP
// state as one n-vector and the per-row minima and first arg-minima. It
// tracks no PTN: after convergence the next pointers are the canonical
// ones rebuilt from the distances (canonicalNext, resolve.go), which are
// exactly what the cold program's PTN holds. A cold solve is the warm
// path seeded with column d of W plus the charges of the machine's
// initialization; the per-destination ROW==d / COL==d selector planes
// are retargeted with stripe edits (FillRange / FillStride), charged as
// the EqConst rebuilds they replace.
//
// The sweep pays the weight DMA and the session setup once and streams
// the single-destination solve for a whole list of destinations.

// scratch is the per-session host scratch of one destination's solve,
// allocated on first use and reused across every destination of every
// solve, sweep and re-solve — the steady state performs O(1) allocations
// per destination (the Result it yields).
type scratch struct {
	dest             int // current selector-plane target (-1 = none yet)
	rowBits, colBits *ppa.Bitset
	enable, pred     *ppa.Bitset
	cand             []ppa.Word // one candidate row
	sow              []ppa.Word // row d of SOW: seed in, converged out
	rmin             []ppa.Word // per-row candidate minima
	rarg             []int32    // per-row first arg-min
	next             []int      // next pointers out
	hops             []int32    // tight-edge BFS levels (canonicalNext)
	q                []int32    // BFS queue
	head, sib        []int32    // shortest-path-tree children lists (applyIncreases)
	stack            []int32
}

func (s *Session) scratch() *scratch {
	if s.sc != nil {
		return s.sc
	}
	n := s.m.N()
	size := n * n
	s.sc = &scratch{
		dest:    -1,
		rowBits: ppa.NewBitset(size),
		colBits: ppa.NewBitset(size),
		enable:  ppa.NewBitset(size),
		pred:    ppa.NewBitset(size),
		cand:    make([]ppa.Word, n),
		sow:     make([]ppa.Word, n),
		rmin:    make([]ppa.Word, n),
		rarg:    make([]int32, n),
		next:    make([]int, n),
		hops:    make([]int32, n),
		q:       make([]int32, 0, n),
		head:    make([]int32, n),
		sib:     make([]int32, n),
		stack:   make([]int32, 0, n),
	}
	return s.sc
}

// retarget repoints the cached ROW==d / COL==d selector planes at a new
// destination with two stripe edits each — the host-side move the fused
// lane charges as the EqConst rebuilds it replaces.
func (sc *scratch) retarget(dest, n int) {
	if sc.dest == dest {
		return
	}
	if sc.dest >= 0 {
		sc.rowBits.FillRange(sc.dest*n, sc.dest*n+n, false)
		sc.colBits.FillStride(sc.dest, n, n, false)
	}
	sc.rowBits.FillRange(dest*n, dest*n+n, true)
	sc.colBits.FillStride(dest, n, n, true)
	sc.dest = dest
}

// DestError is the typed validation error SolveSweep and ResolveSweep
// report for a bad destination list: an entry out of range, or one that
// repeats an earlier entry (a sweep solves each destination exactly once;
// silently coalescing duplicates would desynchronize the caller's
// dests[i] <-> yield pairing, so they are rejected instead).
type DestError struct {
	Dest  int  // offending destination value
	Index int  // its position in the dests slice
	N     int  // the fabric side (valid destinations are [0, N))
	Dup   bool // true when the destination repeats an earlier entry
}

func (e *DestError) Error() string {
	if e.Dup {
		return fmt.Sprintf("core: duplicate destination %d at dests[%d]", e.Dest, e.Index)
	}
	return fmt.Sprintf("core: destination %d at dests[%d] out of range [0,%d)", e.Dest, e.Index, e.N)
}

// checkDests validates a sweep's destination list upfront — range and
// distinctness — so a bad list fails atomically, before any solve runs or
// any row is yielded. The duplicate bitmap is session-owned and reused.
func (s *Session) checkDests(dests []int) error {
	n := s.m.N()
	if s.destSeen == nil {
		s.destSeen = make([]uint64, (n+63)>>6)
	}
	seen := s.destSeen
	for i := range seen {
		seen[i] = 0
	}
	for i, d := range dests {
		if d < 0 || d >= n {
			return &DestError{Dest: d, Index: i, N: n}
		}
		if seen[d>>6]&(1<<(uint(d)&63)) != 0 {
			return &DestError{Dest: d, Index: i, N: n, Dup: true}
		}
		seen[d>>6] |= 1 << (uint(d) & 63)
	}
	return nil
}

// SolveSweep runs the DP for each destination in dests, in order, on the
// session's warm fabric, calling yield with each destination's Result as
// it completes — the batched all-pairs driver. Destinations must be
// distinct and in range (*DestError otherwise, before anything runs).
// Results, Iterations and Metrics of every yielded Result are identical
// to what a sequential Session.Solve loop would produce. The sweep stops
// at the first error: a failed solve (the error is returned; earlier
// yields remain valid) or a non-nil error from yield (returned unwrapped,
// so callers can use a sentinel to stop early). The context is checked
// between DP iterations, as in SolveContext.
//
// Each yielded Result is freshly allocated and remains valid after the
// sweep. A Session is still not safe for concurrent use; SolveAllPairs
// shards destinations across per-worker sessions.
func (s *Session) SolveSweep(ctx context.Context, dests []int, yield func(*Result) error) error {
	if err := s.checkDests(dests); err != nil {
		return err
	}
	for _, d := range dests {
		r, err := s.SolveContext(ctx, d)
		if err != nil {
			return err
		}
		if err := yield(r); err != nil {
			return err
		}
	}
	return nil
}

// fusedMachine returns the plain machine the fused lane may drive, or nil
// when the machine program must run: virtualized fabrics, injected
// faults, the switch-only bus model, reference kernels and the paper's
// verbatim init. Re-checked per destination, so a fault injected
// mid-sweep (e.g. from a yield callback) demotes the remainder of the
// sweep to the machine program, mirroring par's fusedOn.
func (s *Session) fusedMachine() *ppa.Machine {
	if s.opt.SwitchOnlyBus || s.opt.ReferenceKernels || s.opt.PaperInit || !s.a.Fused() {
		return nil
	}
	pm, ok := s.m.(*ppa.Machine)
	if !ok || pm.Faulty() {
		return nil
	}
	return pm
}

// solveFused runs one destination's DP in the fused lane (see the file
// comment), leaving the converged row d of SOW in the scratch's sow. A
// warm solve starts from the sow already staged there; a cold one seeds
// it with the 1-edge costs w_jd.
func (s *Session) solveFused(ctx context.Context, pm *ppa.Machine, dest int, warm bool) (int, error) {
	n := pm.N()
	h := pm.Bits()
	inf := ppa.Infinity(h)
	maxIter := s.maxIter()
	sc := s.scratch()
	sow := sc.sow
	W := s.W.Words()
	diagBits := s.diag.Bits()
	headBits := s.rowHead.Bits()
	// charge counts k SIMD instructions of the machine program, each
	// executed by all n*n PEs (par.Array.instr). Instructions raise no
	// observer events, so each step's are charged in one call.
	size := int64(n) * int64(n)
	charge := func(k int) {
		for i := 0; i < k; i++ {
			pm.CountInstr()
		}
		pm.CountPE(int64(k) * size)
	}
	// One bit-serial reduction (par.Array.Min / SelectedMin): h per-plane
	// gathers, the enable set-up (True or sel.Copy), four instructions and
	// one wired-OR per plane, and the result copy — then the two spreading
	// broadcasts. enable is the attaining-lane set the walk leaves behind.
	hh := int(h)
	reduce := func(enable *ppa.Bitset) {
		charge(hh + 1)
		for j := 0; j < hh; j++ {
			pm.ChargeWiredOr(ppa.West, headBits)
			charge(4)
		}
		charge(1)
		pm.ChargeBroadcast(ppa.East, enable)   // survivors send upstream
		pm.ChargeBroadcast(ppa.West, headBits) // heads spread the result
	}

	sc.retarget(dest, n)
	if warm {
		charge(2) // rowIsD = ROW.EqConst(d); notD = rowIsD.Not()
	} else {
		// Statements 4-7: rowIsD, colIsD (two EqConst) and notD; column d
		// of W moved onto row d by two broadcasts; SOW and PTN stored
		// where ROW==d; atDD = rowIsD.And(colIsD); SOW[d][d] = 0.
		charge(3)
		for j := 0; j < n; j++ {
			sow[j] = W[j*n+dest]
		}
		sow[dest] = 0
		pm.ChargeBroadcast(ppa.East, sc.colBits)
		pm.ChargeBroadcast(ppa.South, diagBits)
		charge(4)
	}
	sc.pred.Fill(false)

	iterations := 0
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		iterations++
		if iterations > maxIter {
			return 0, fmt.Errorf("core: DP did not converge within %d rounds", maxIter)
		}

		// Statement 10: down = broadcast(SOW, SOUTH, ROW==d); the
		// candidate plane cand = down.AddSat(W) is stored where ROW != d.
		// Row i's candidates are sat(SOW[d][j] + w_ij); row d keeps SOW[d]
		// (the masked store skips it). One scan per row yields its minimum
		// and first arg-min — the values both bus walks would extract —
		// and the lanes attaining the minimum.
		pm.ChargeBroadcast(ppa.South, sc.rowBits)
		charge(2)
		sc.enable.Fill(false)
		for i := 0; i < n; i++ {
			c := sc.cand
			if i == dest {
				copy(c, sow)
			} else {
				for j, wv := range W[i*n : i*n+n] {
					v := sow[j] + wv // lanes are in [0, inf]: no overflow
					if v > inf {
						v = inf
					}
					c[j] = v
				}
			}
			mv, ma := c[0], 0
			for j := 1; j < n; j++ {
				if c[j] < mv {
					mv, ma = c[j], j
				}
			}
			for j := ma; j < n; j++ {
				if c[j] == mv {
					sc.enable.Set(i*n + j)
				}
			}
			sc.rmin[i], sc.rarg[i] = mv, int32(ma)
		}

		// Statement 11: MIN_SOW = min(SOW, WEST, COL==n-1), then
		// MinSOW.Assign (where ROW != d) and sel = rowMin.Eq(SOW).
		reduce(sc.enable)
		charge(2)

		// Statement 12: PTN = selected_min(COL, WEST, COL==n-1, sel) —
		// the walk leaves exactly the first attaining lane per row — then
		// PTN.Assign (where ROW != d).
		sc.enable.Fill(false)
		for i := 0; i < n; i++ {
			sc.enable.Set(i*n + int(sc.rarg[i]))
		}
		reduce(sc.enable)
		charge(1)

		// Statements 14-19: fold the row minima into row d via the
		// diagonal (newRow, newPTN); OldSOW.Assign, SOW.Assign, changed =
		// Ne and PTN.Assign where ROW == d.
		pm.ChargeBroadcast(ppa.South, diagBits)
		pm.ChargeBroadcast(ppa.South, diagBits)
		charge(4)
		sc.pred.FillRange(dest*n, dest*n+n, false)
		for j := 0; j < n; j++ {
			nv := sc.rmin[j]
			if j == dest {
				nv = 0 // MinSOW[d][d] stays pinned to 0
			}
			if nv != sow[j] {
				sc.pred.Set(dest*n + j)
				sow[j] = nv
			}
		}

		// Statement 20: ne = SOW.Ne(OldSOW); pred = rowIsD.And(ne); loop
		// while at least one SOW in row d has changed.
		charge(2)
		if !pm.GlobalOrBits(sc.pred) {
			return iterations, nil
		}
	}
}
