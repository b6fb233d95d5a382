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
// alike on every healthy, unobserved plain machine (fusedMachine). It
// computes each round (statements 10-20) as an O(n²) host scan and issues
// no fabric transaction. Its cost is the machine program's closed-form
// schedule (dpCost): the init charge once, then one round charge per
// round, each applied in a single ppa.Machine.Charge. Metrics and
// Iterations are therefore identical to the machine program's (runDP),
// pinned by the fused/reference parity tests and PredictedCost's property
// test. An attached observer sends the session to the machine program, so
// observers always see the real transaction stream.
//
// What makes the scan cheap is liveness: between rounds the DP's only
// live machine state is row d of SOW. Every broadcast the program issues
// reads either row d or the diagonal (which reflects row d's update one
// statement later), and every store to rows != d is overwritten before it
// is next read. The lane therefore keeps the DP state as one n-vector and
// the per-row minima. It tracks no PTN: after convergence the next
// pointers are the canonical ones rebuilt from the distances
// (canonicalNext, resolve.go), which are exactly what the cold program's
// PTN holds. A cold solve is the warm path seeded with column d of W.
//
// The sweep pays the weight DMA and the session setup once and streams
// the single-destination solve for a whole list of destinations.

// scratch is the per-session host scratch of one destination's solve,
// allocated on first use and reused across every destination of every
// solve, sweep and re-solve — the steady state performs O(1) allocations
// per destination (the Result it yields).
type scratch struct {
	sow       []ppa.Word // row d of SOW: seed in, converged out
	rmin      []ppa.Word // per-row candidate minima
	next      []int      // next pointers out
	hops      []int32    // tight-edge BFS levels (canonicalNext)
	q         []int32    // BFS queue
	head, sib []int32    // shortest-path-tree children lists (applyIncreases)
	stack     []int32
}

func (s *Session) scratch() *scratch {
	if s.sc != nil {
		return s.sc
	}
	n := s.m.N()
	s.sc = &scratch{
		sow:   make([]ppa.Word, n),
		rmin:  make([]ppa.Word, n),
		next:  make([]int, n),
		hops:  make([]int32, n),
		q:     make([]int32, 0, n),
		head:  make([]int32, n),
		sib:   make([]int32, n),
		stack: make([]int32, 0, n),
	}
	return s.sc
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
// faults, an attached observer, the switch-only bus model, reference
// kernels and the paper's verbatim init. Re-checked per destination, so a
// fault injected mid-sweep (e.g. from a yield callback) demotes the
// remainder of the sweep to the machine program, mirroring par's fusedOn.
func (s *Session) fusedMachine() *ppa.Machine {
	if s.opt.SwitchOnlyBus || s.opt.ReferenceKernels || s.opt.PaperInit || !s.a.Fused() {
		return nil
	}
	pm, ok := s.m.(*ppa.Machine)
	if !ok || pm.Faulty() || pm.Observed() {
		return nil
	}
	return pm
}

// solveFused runs one destination's DP in the fused lane (see the file
// comment), leaving the converged row d of SOW in the scratch's sow. A
// warm solve starts from the sow already staged there; a cold one seeds
// it with the 1-edge costs w_jd (statements 4-7).
func (s *Session) solveFused(ctx context.Context, pm *ppa.Machine, dest int, warm bool) (int, error) {
	n := pm.N()
	inf := pm.Inf()
	maxIter := s.maxIter()
	sc := s.scratch()
	sow, rmin := sc.sow, sc.rmin
	W := s.W.Words()
	initCost, roundCost := dpCost(n, pm.Bits(), warm, false, false)
	pm.Charge(initCost)
	if !warm {
		for j := 0; j < n; j++ {
			sow[j] = W[j*n+dest]
		}
		sow[dest] = 0
	}

	iterations := 0
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		iterations++
		if iterations > maxIter {
			return 0, fmt.Errorf("core: DP did not converge within %d rounds", maxIter)
		}
		pm.Charge(roundCost)

		// Statements 10-11: row i's candidates are sat(SOW[d][j] + w_ij),
		// and MinSOW[i] is their minimum (MinSOW[d][d] stays pinned to 0).
		// Lanes are in [0, inf], so the sums cannot overflow, and starting
		// from inf saturates. Statement 12's arg-min only feeds PTN.
		for i := 0; i < n; i++ {
			m := ppa.Word(0)
			if i != dest {
				m = inf
				for j, wv := range W[i*n : i*n+n] {
					if v := sow[j] + wv; v < m {
						m = v
					}
				}
			}
			rmin[i] = m
		}

		// Statements 14-20: fold the row minima into row d and loop while
		// at least one SOW in row d has changed.
		changed := false
		for j, v := range rmin {
			if v != sow[j] {
				sow[j] = v
				changed = true
			}
		}
		if !changed {
			return iterations, nil
		}
	}
}
