package core

import (
	"context"

	"ppamcp/internal/ppa"
)

// This file is the incremental all-pairs driver: ResolveSweep is to
// Resolve what SolveSweep is to Solve. After a Session.Update batch, one
// warm fabric streams re-solved rows for a whole destination list, each
// destination seeded from its retained solution (resolve.go) instead of
// the cold 1-edge init — and destinations the delta provably cannot have
// touched skip the DP entirely.
//
// The skip-converged check (warmAffected) is what makes a k-edge delta
// cost O(k) per untouched destination instead of a detection round on the
// fabric. It replays the change-log suffix since the destination's
// snapshot against the snapshot itself:
//
//   - an increase on edge (u, v) can only matter if a recorded path
//     traverses it, i.e. next[u] == v with u reachable — exactly the
//     condition under which applyIncreases would invalidate a subtree;
//   - a decrease on edge (u, v) can only matter if it relaxes against the
//     snapshot, i.e. sat(w'_uv + dist[v]) < dist[u] — or ties it
//     (== with u reachable), which cannot change distances but can add a
//     tight edge and thereby change the canonical next pointers.
//
// If no logged entry fires, the old distance vector is still feasible for
// the current weights (w'_ij + dist[j] >= dist[i] on every edge: untouched
// edges held at snapshot time, touched edges are certified entry by
// entry), so it is still THE distance vector; and since no tight edge
// appeared and every vanished tight edge (u, v) was non-canonical
// (next[u] != v, and next[u] itself stays tight one hop level down), the
// hop-level BFS of canonicalNext and every smallest-tight-successor choice
// are unchanged too. The retained row is therefore bit-identical to what
// the DP would converge to, and is emitted as-is with zero Iterations and
// zero Metrics — no fabric transaction happens in either lane, so
// fast/general parity is preserved trivially. Entries with u == dest are
// ignored: row dest of the DP is pinned (dist[dest] = 0), so the
// destination's own outgoing edges never enter its solution.
//
// Everything else keeps the established contract: Dist/Next bit-identical
// to a cold SolveSweep, first-sweep-after-Reload byte-identical including
// Metrics (every destination takes the same cold dispatch SolveSweep
// uses, and retaining costs no machine transactions), and faulty/
// PaperInit fabrics never warm-start (retainable), so they fall back to
// cold sweeps every time.

// ResolveSweep re-solves every destination in dests, in order, on the
// session's current graph, calling yield with each destination's Result
// as it completes — the incremental all-pairs driver. Destinations must
// be distinct and in range (*DestError otherwise, before anything runs).
//
// Per destination the dispatch is Resolve's: warm-start from the retained
// solution when one is usable, cold solve (retained for next time)
// otherwise — so Dist and Next are always identical to a from-scratch
// Reload + SolveSweep, and on a session with no retained state (first
// sweep, after Reload, faulty or PaperInit fabrics) Metrics and
// Iterations are byte-identical to SolveSweep's too. Beyond Resolve,
// a destination the update delta provably did not affect skips the DP:
// its row is emitted from the retained solution with Iterations == 0 and
// zero Metrics (see the file comment for the certificate).
//
// Error discipline matches SolveSweep: first failed solve or first
// non-nil yield error stops the sweep, earlier yields remain valid.
// Either way the change log is pruned once, when the sweep returns.
func (s *Session) ResolveSweep(ctx context.Context, dests []int, yield func(*Result) error) error {
	if err := s.checkDests(dests); err != nil {
		return err
	}
	defer s.pruneLog()
	for _, d := range dests {
		r, err := s.resolveOne(ctx, d, true)
		if err != nil {
			return err
		}
		if err := yield(r); err != nil {
			return err
		}
	}
	return nil
}

// warmAffected reports whether the change-log suffix since w's snapshot
// could have changed destination dest's solution (distances or canonical
// next pointers). False is a certificate that the retained row is still
// exact; true is conservative — the DP runs and settles it.
func (s *Session) warmAffected(dest int, w *warmDest) bool {
	if w.ver == s.version {
		return false
	}
	n := s.m.N()
	inf := ppa.Infinity(s.m.Bits())
	W := s.W.Words()
	for _, e := range s.incLog {
		if e.ver <= w.ver || int(e.u) == dest {
			continue
		}
		u := int(e.u)
		if e.inc {
			// An increase breaks exactly the recorded paths through (u, v);
			// a vanished non-canonical tight edge cannot move next (file
			// comment). Same condition applyIncreases invalidates on.
			if w.next[u] == int(e.v) && w.sow[u] != inf {
				return true
			}
			continue
		}
		// A decrease matters iff it relaxes against the snapshot — or ties
		// it on a reachable vertex, which adds a tight edge the canonical
		// next reconstruction could prefer. Current weight, not the logged
		// one: later entries on the same edge are certified by their own
		// log entries, and only the net weight is live.
		cand := W[u*n+int(e.v)] + w.sow[e.v] // lanes in [0, inf]: no overflow
		if cand > inf {
			cand = inf
		}
		if cand < w.sow[u] || (cand == w.sow[u] && w.sow[u] != inf) {
			return true
		}
	}
	return false
}

// emitRetained builds a Result straight from the retained solution — the
// skip-converged fast-out. Zero Iterations and zero Metrics: no DP ran,
// no fabric transaction was issued, in either execution lane. The
// snapshot version is refreshed (the certificate just proved the row
// current) so later sweeps only replay newer log entries; the log itself
// is pruned once the sweep ends.
func (s *Session) emitRetained(dest int, w *warmDest) *Result {
	res := s.newResult(dest, w.sow, w.next, 0, ppa.Metrics{})
	w.ver = s.version
	return res
}
