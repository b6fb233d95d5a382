package core

import (
	"context"
	"fmt"

	"ppamcp/internal/ppa"
)

// This file is the DP half of the incremental re-solve path. Resolve is
// Solve for dynamic graphs: the first call per destination is exactly a
// cold solve (same lane, same Metrics), but the solution is retained, and
// later calls warm-start the DP from it instead of from the 1-edge seeds.
// Both run through the session's one dispatch (Session.solve): the fused
// lane on healthy, unobserved fabrics (solveFused, sweep.go), the machine
// program (runDP) everywhere else; a warm start only changes the seed.
//
// Why warm-starting is sound: the DP round operator
// T(x)_i = min_j sat(w_ij + x_j) (the self term w_ii = 0 makes rounds
// monotone non-increasing) drives ANY pointwise upper bound of the true
// distances down to them within n-1 rounds. Old distances stay upper
// bounds across weight decreases (the recorded paths only get cheaper),
// so decrease-only deltas re-seed directly; a weight increase on edge
// (u, v) can break exactly the recorded paths that traverse it, so the
// seed entries of u's subtree in the retained shortest-path tree are
// invalidated back to MAXINT (update.go logs increases for this). The
// surviving entries quote paths that avoid every increased edge, hence
// remain valid upper bounds.
//
// The converged distances equal the from-scratch ones exactly. The next
// pointers need one more step: the cold DP's PTN is the smallest column j
// with a tight edge (w_ij + dist_j = dist_i) whose own minimal optimal
// path uses one edge less (PTN is written only on the round where SOW
// last strictly improves, and the attaining set at that round is exactly
// those j). canonicalNext reconstructs that choice on the host from the
// converged distances — one BFS from the destination over reversed tight
// edges assigns the edge-count levels and picks each vertex's smallest
// tight successor one level down. The fused lane uses it for
// every solve, cold or warm (it tracks no PTN at all), and the machine
// program for warm ones (whose trajectory takes different rounds), so
// every result is bit-identical to the cold machine program's, not just
// cost-equal.

// Resolve solves for dest on the session's current graph, warm-starting
// from the previous Resolve of the same destination when one is retained
// and still valid. Dist and Next are identical to a from-scratch
// Reload+Solve in every case; on the first call per destination (or after
// Reload, or when invalidated) the Metrics and Iterations are also
// byte-identical to Solve's, while a warm re-solve legitimately reports
// fewer iterations — that is the win (see DESIGN §12).
//
// Sessions on faulty fabrics and PaperInit sessions never warm-start:
// their solves are not fixpoints of the healthy DP operator, so a
// previous solution is not a safe seed. They run the cold path every
// time.
func (s *Session) Resolve(ctx context.Context, dest int) (*Result, error) {
	n := s.m.N()
	if dest < 0 || dest >= n {
		return nil, fmt.Errorf("core: destination %d out of range [0,%d)", dest, n)
	}
	defer s.pruneLog()
	return s.resolveOne(ctx, dest, false)
}

// resolveOne is the shared per-destination dispatch of Resolve and
// ResolveSweep: warm re-solve when a usable snapshot exists, cold solve
// otherwise, retaining the solution for next time. Its callers prune the
// change log once per call (pruneLog). allowSkip enables
// ResolveSweep's skip-converged fast-out (resolvesweep.go); Resolve keeps
// it off so its per-call contract — the DP runs and Iterations >= 1 — is
// unchanged.
func (s *Session) resolveOne(ctx context.Context, dest int, allowSkip bool) (*Result, error) {
	w := s.warmUsable(dest)
	if w != nil {
		if allowSkip && !s.warmAffected(dest, w) {
			return s.emitRetained(dest, w), nil
		}
		// Warm seed: the snapshot, minus what the logged increases may
		// have broken.
		sc := s.scratch()
		copy(sc.sow, w.sow)
		s.applyIncreases(w, sc)
	}
	r, err := s.solve(ctx, dest, w != nil)
	if err != nil {
		return nil, err
	}
	if s.retainable() {
		s.retain(dest, r)
	}
	return r, nil
}

// retainable reports whether solutions may be retained and reused as warm
// seeds on this session.
func (s *Session) retainable() bool {
	if s.opt.PaperInit {
		return false
	}
	if f, ok := s.m.(interface{ Faulty() bool }); ok && f.Faulty() {
		return false
	}
	return true
}

// warmUsable returns the retained solution Resolve may warm-start from,
// or nil when the cold path must run.
func (s *Session) warmUsable(dest int) *warmDest {
	if s.warm == nil || !s.retainable() {
		return nil
	}
	w := s.warm[dest]
	if w == nil || w.ver < s.logFloor {
		return nil
	}
	return w
}

// applyIncreases raises to MAXINT every seed entry whose recorded path may
// traverse an edge that increased since the snapshot: for each logged
// increase (u, v) newer than the snapshot (decrease entries in the change
// log are skipped — they cannot break an upper bound) with next[u] == v,
// the whole
// subtree of u in the retained shortest-path tree (every vertex whose
// recorded path passes through u). Conservative — a survivor's recorded
// path avoids all increased edges, so its cost is unchanged and the seed
// stays an upper bound.
func (s *Session) applyIncreases(w *warmDest, sc *scratch) {
	applicable := false
	for _, e := range s.incLog {
		if e.ver > w.ver && e.inc {
			applicable = true
			break
		}
	}
	if !applicable {
		return
	}
	n := s.m.N()
	inf := ppa.Infinity(s.m.Bits())
	head, sib := sc.head, sc.sib
	for i := range head {
		head[i] = -1
	}
	for i := 0; i < n; i++ {
		if p := w.next[i]; p >= 0 {
			sib[i] = head[p]
			head[p] = int32(i)
		}
	}
	stack := sc.stack[:0]
	for _, e := range s.incLog {
		if e.ver <= w.ver || !e.inc {
			continue
		}
		u := int(e.u)
		if w.next[u] != int(e.v) || sc.sow[u] == inf {
			continue
		}
		// Iterative subtree walk; an entry already at MAXINT was either
		// invalidated by an earlier increase or unreachable — both final.
		stack = append(stack, int32(u))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if sc.sow[x] == inf {
				continue
			}
			sc.sow[x] = inf
			for c := head[x]; c >= 0; c = sib[c] {
				stack = append(stack, c)
			}
		}
	}
	sc.stack = stack[:0]
}

// canonicalNext rebuilds, from converged distances, the next pointers the
// cold DP reports: each reachable vertex's smallest tight successor one
// edge-count level down (the attaining set of the round where cold SOW
// last strictly improved). It is one BFS from dest over reversed tight
// edges, walking the in-edge lists (inEdges): when a vertex j at level L
// is dequeued, a tight unvisited in-neighbour i gets level L+1 and next
// j, and a tight i already at level L+1 keeps the smaller of its next
// and j. Every level-L vertex is dequeued before any of level L+1, so
// each vertex sees all its tight successors one level down.
func (s *Session) canonicalNext(dest int) {
	inf := ppa.Infinity(s.m.Bits())
	sc := s.inEdges()
	sow, next, hops, in, start := sc.sow, sc.next, sc.hops, sc.in, sc.inStart
	for i := range hops {
		hops[i] = -1
		next[i] = -1
	}
	hops[dest] = 0
	q := append(sc.q[:0], int32(dest)) // cap n: each vertex is queued once
	for qh := 0; qh < len(q); qh++ {
		j := q[qh]
		dj, lv := sow[j], hops[j]+1
		for _, e := range in[start[j]:start[j+1]] {
			// Words are at most Infinity(h) <= 2^62-1: no int64 overflow.
			i := e.i
			if di := sow[i]; di == inf || di != e.w+dj {
				continue
			}
			switch hops[i] {
			case -1:
				hops[i], next[i] = lv, int(j)
				q = append(q, i)
			case lv:
				if int(j) < next[i] {
					next[i] = int(j)
				}
			}
		}
	}
}
