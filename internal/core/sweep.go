package core

import (
	"context"
	"fmt"

	"ppamcp/internal/ppa"
	"ppamcp/internal/virt"
)

// This file is the fused DP lane and the batched multi-destination sweep
// driver built on it.
//
// The fused lane (solveFused) is the one host execution of the paper's
// per-destination DP, taken by cold solves, warm re-solves and sweeps
// alike on every healthy, unobserved fabric (fusedMachine): direct or
// block-mapped, on either bus model. It issues no fabric transaction. Its
// cost is the machine program's closed-form schedule (dpCost), which takes
// the bus model and the array geometry as parameters: the init charge
// once, then one round charge per round, each applied in a single
// ppa.Machine.Charge on the machine that counts (a virt.Machine's physical
// one). Metrics and Iterations are therefore identical to the machine
// program's (runDP), pinned by the fused/reference parity tests and
// PredictedCost's property test. An attached observer sends the session
// to the machine program, so observers always see the real transaction
// stream.
//
// What makes the lane cheap is liveness: between rounds the DP's only
// live machine state is row d of SOW. Every broadcast the program issues
// reads either row d or the diagonal (which reflects row d's update one
// statement later), and every store to rows != d is overwritten before it
// is next read. The lane therefore keeps the DP state as one n-vector. It
// tracks no PTN: after convergence the next pointers are the canonical
// ones rebuilt from the distances (canonicalNext, resolve.go), which are
// exactly what the cold program's PTN holds. A cold solve is the warm
// path seeded with column d of W.
//
// Each round is a frontier push, not a scan of all n² candidates. The
// round operator T(x)_i = min_j sat(w_ij + x_j) includes the self term
// w_ii = 0, so a row's candidate minimum can only drop below its current
// entry through an in-edge (i, j) whose entry x_j changed in the round
// before: every other term was already offered to row i then. The lane
// keeps the resident weights as in-edge lists (inEdges) and pushes only
// from the entries statement 20's global-OR saw change — in round 1 from
// every finite seed entry. Candidates collect in rmin and fold into row d
// after the whole round, so each round's values, and with them
// Iterations, equal those of the machine program's round, which offers
// every candidate.
//
// The sweep pays the weight DMA and the session setup once and streams
// the single-destination solve for a whole list of destinations.

// scratch is the per-session host scratch of one destination's solve,
// allocated on first use and reused across every destination of every
// solve, sweep and re-solve — the steady state performs O(1) allocations
// per destination (the Result it yields). It also holds the in-edge
// adjacency of the resident weights (inEdges), rebuilt in place when the
// session's weights change.
type scratch struct {
	sow       []ppa.Word // row d of SOW: seed in, converged out
	rmin      []ppa.Word // per-row candidate minima of the current round
	next      []int      // next pointers out
	hops      []int32    // tight-edge BFS levels (canonicalNext)
	q         []int32    // push frontier (solveFused), BFS queue (canonicalNext)
	head, sib []int32    // shortest-path-tree children lists (applyIncreases)
	stack     []int32

	// In-edge adjacency of the weights at session version adjVer (^0
	// before the first build): column j's edges are
	// in[inStart[j]:inStart[j+1]], every i != j with w_ij != MAXINT, in
	// ascending i. cap(in) is at least one more than the edge count.
	in      []inEdge
	inStart []int32
	adjVer  uint64
}

// inEdge is one finite off-diagonal weight w_ij in column j's list.
type inEdge struct {
	i int32
	w ppa.Word
}

func (s *Session) scratch() *scratch {
	if s.sc != nil {
		return s.sc
	}
	n := s.m.N()
	s.sc = &scratch{
		sow:     make([]ppa.Word, n),
		rmin:    make([]ppa.Word, n),
		next:    make([]int, n),
		hops:    make([]int32, n),
		q:       make([]int32, 0, n),
		head:    make([]int32, n),
		sib:     make([]int32, n),
		stack:   make([]int32, 0, n),
		inStart: make([]int32, n+1),
		adjVer:  ^uint64(0),
	}
	return s.sc
}

// inEdges returns the scratch with its in-edge adjacency current for the
// resident weights. Reload and every effective Update bump s.version, so
// a version mismatch is exactly "the weights may have changed" (Update
// patches the lists in place when it only rewrites finite weights). The
// rebuild reuses the edge storage once it has grown to the largest edge
// count seen.
func (s *Session) inEdges() *scratch {
	sc := s.scratch()
	if sc.adjVer == s.version {
		return sc
	}
	n := s.m.N()
	inf := ppa.Infinity(s.m.Bits())
	W := s.W.Words()
	// Words are in [0, inf], so "w is an edge" is the sign bit of w-inf:
	// both passes are branch-free on that unpredictable test. The count
	// starts at -n to discount the diagonal, whose words are 0.
	edge := func(w ppa.Word) int32 { return int32(uint64(w-inf) >> 63) }
	m := -n
	for _, w := range W {
		m += int(edge(w))
	}
	if cap(sc.in) < m+1 {
		sc.in = make([]inEdge, m+1)
	}
	// Column by column, store every off-diagonal candidate at the cursor
	// and step past it only if it is an edge; the last candidate may land
	// in the one spare slot.
	in := sc.in[:m+1]
	p := int32(0)
	for j := 0; j < n; j++ {
		sc.inStart[j] = p
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			w := W[i*n+j]
			in[p] = inEdge{i: int32(i), w: w}
			p += edge(w)
		}
	}
	sc.inStart[n] = p
	sc.in = in[:m]
	sc.adjVer = s.version
	return sc
}

// patchInEdges carries a current in-edge adjacency across an Update batch
// whose staged edits (upIdx/upVals, applied in order) only rewrite finite
// weights: every list keeps its shape, so each edit is one store into its
// column. An edit that inserts or deletes an edge leaves the adjacency
// stale for inEdges to rebuild. prev is the version before the batch.
func (s *Session) patchInEdges(prev uint64, reshaped bool) {
	sc := s.sc
	if sc == nil || sc.adjVer != prev || reshaped {
		return
	}
	n := s.m.N()
	for k, idx := range s.upIdx {
		u, v := int32(idx/n), idx%n
		col := sc.in[sc.inStart[v]:sc.inStart[v+1]]
		for x := range col {
			if col[x].i == u {
				col[x].w = s.upVals[k]
				break
			}
		}
	}
	sc.adjVer = s.version
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

// fusedMachine returns the machine whose counters the fused lane charges
// — the plain machine, or a virt.Machine's physical one — or nil when the
// machine program must run: reference kernels, the paper's verbatim init
// (its erratum seed leaves next pointers canonicalNext cannot rebuild),
// a foreign fabric, injected faults or an attached observer. Re-checked
// per destination, so a fault injected mid-sweep (e.g. from a yield
// callback) demotes the remainder of the sweep to the machine program.
func (s *Session) fusedMachine() *ppa.Machine {
	if s.opt.ReferenceKernels || s.opt.PaperInit {
		return nil
	}
	var pm *ppa.Machine
	switch m := s.m.(type) {
	case *ppa.Machine:
		pm = m
	case *virt.Machine:
		pm = m.Physical()
	default:
		return nil
	}
	if pm.Faulty() || pm.Observed() {
		return nil
	}
	return pm
}

// solveFused runs one destination's DP in the fused lane (see the file
// comment), leaving the converged row d of SOW in the scratch's sow. A
// warm solve starts from the sow already staged there; a cold one seeds
// it with the 1-edge costs w_jd (statements 4-7).
func (s *Session) solveFused(ctx context.Context, pm *ppa.Machine, dest int, warm bool) (int, error) {
	inf := pm.Inf()
	maxIter := s.maxIter()
	sc := s.inEdges()
	sow, rmin, in, start := sc.sow, sc.rmin, sc.in, sc.inStart
	initCost, roundCost := dpCost(s.m.N(), s.phys, pm.Bits(), warm, false, s.opt.SwitchOnlyBus)
	pm.Charge(initCost)
	if !warm {
		for j := range sow {
			sow[j] = inf
		}
		for _, e := range in[start[dest]:start[dest+1]] {
			sow[e.i] = e.w
		}
		sow[dest] = 0
	}
	// Round 1 pushes from every finite seed entry (an infinite one offers
	// no finite candidate). MinSOW[d][d] is pinned to 0.
	copy(rmin, sow)
	rmin[dest] = 0
	front := sc.q[:0] // cap n: appends never reallocate
	for j, v := range sow {
		if v != inf {
			front = append(front, int32(j))
		}
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

		// Statements 10-11: offer sat(SOW[d][j] + w_ij) to each row i with
		// an in-edge from a frontier entry j; rmin starts the round equal
		// to row d. Lanes are in [0, inf], so sums cannot overflow, and a
		// sum >= inf never lowers rmin[i] <= inf; rmin[d] stays 0.
		// Statement 12's arg-min only feeds PTN.
		for _, j := range front {
			sj := sow[j]
			for _, e := range in[start[j]:start[j+1]] {
				rmin[e.i] = min(rmin[e.i], sj+e.w)
			}
		}

		// Statements 14-20: fold the row minima into row d and loop while
		// at least one SOW in row d has changed; those entries are the
		// next round's frontier.
		front = front[:0]
		for i, v := range rmin {
			if v != sow[i] {
				sow[i] = v
				front = append(front, int32(i))
			}
		}
		if len(front) == 0 {
			return iterations, nil
		}
	}
}
