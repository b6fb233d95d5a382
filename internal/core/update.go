package core

import (
	"fmt"

	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// This file is the ingest half of the incremental re-solve path (the DP
// half lives in resolve.go): Session.Update patches a dynamic graph's
// weight changes into the resident weight plane word by word, and keeps
// the bookkeeping Resolve needs to decide how much of a previous solution
// survives.
//
// The bookkeeping is a version counter plus an append-only log of every
// effective machine-word weight change. Only the increases can invalidate
// a retained solution — old distances remain upper bounds across
// decreases, and Bellman-Ford-style relaxation converges from any upper
// bound — but the decreases are logged too (flagged inc=false) so
// ResolveSweep's skip-converged check can prove a destination untouched
// by the whole delta without running its DP (resolvesweep.go). A warm
// snapshot taken at version v is revalidated against the log suffix
// (entries newer than v); Reload truncates the log wholesale by raising
// logFloor, which marks every snapshot stale in O(1) without touching
// the retained storage (it is reused by the next warm solve of that
// destination).

// incEntry records one applied machine-word weight change. inc marks an
// increase — the only kind that can invalidate a retained solution (edge
// removal is an increase to MAXINT; inserting an edge is a decrease from
// it); decreases ride along for the skip-converged check.
type incEntry struct {
	ver  uint64
	u, v int32
	inc  bool
}

// warmDest is the retained solution for one destination: machine-word
// distances (sow[dest] = 0, MAXINT for unreachable), the canonical next
// pointers (-1 for dest and unreachable vertices), and the update version
// the snapshot reflects.
type warmDest struct {
	ver  uint64
	sow  []ppa.Word
	next []int
}

// maxIncLog bounds the change log. A session whose warm snapshots are
// never refreshed would otherwise grow the log without bound on an
// update-heavy stream; past the cap the log is truncated and every
// snapshot marked stale (the next Resolve per destination is a cold
// solve), trading one re-solve for O(1) memory.
func (s *Session) maxIncLog() int { return 1024 + 4*s.m.N() }

// invalidateWarm marks every retained solution stale and empties the
// change log — the O(1) full invalidation Reload uses (snapshot storage
// is kept for reuse; staleness is decided by comparing versions).
func (s *Session) invalidateWarm() {
	s.version++
	s.logFloor = s.version
	s.incLog = s.incLog[:0]
}

// Update applies a batch of weight updates to the session's graph and
// patches only the touched words of the resident weight plane — O(k)
// sparse DMA for k edges instead of Reload's O(n²) re-stream. The batch
// is atomic: every update is validated (endpoint range and the same
// word-width rule Reload enforces) before anything is applied, and on
// error neither the graph nor the machine changed. Updates may repeat an
// edge (last write wins); no-op updates cost nothing.
//
// The caller's graph is never mutated: the first effective Update clones
// it and the session mutates its own copy from then on (Graph returns the
// current one). Like every Session method, Update is not safe for
// concurrent use.
func (s *Session) Update(updates []graph.WeightUpdate) error {
	n := s.m.N()
	h := s.m.Bits()
	inf := ppa.Infinity(h)
	for _, u := range updates {
		if err := u.Validate(n); err != nil {
			return err
		}
		if u.W != graph.NoEdge && u.U != u.V && n > 1 && u.W > (int64(inf)-1)/int64(n-1) {
			// Same overflow guard as loadWeightsInto: a worst-case simple
			// path could saturate and masquerade as "no path".
			return fmt.Errorf(
				"core: %d-bit words cannot distinguish worst-case path cost (%d * %d) from MAXINT; raise Options.Bits",
				h, n-1, u.W)
		}
	}
	if len(updates) == 0 {
		return nil
	}
	if !s.ownG {
		s.g = s.g.Clone()
		s.ownG = true
	}
	s.upIdx = s.upIdx[:0]
	s.upVals = s.upVals[:0]
	words := s.W.Words()
	prev := s.version
	bumped, reshaped := false, false
	for _, u := range updates {
		s.g.W[u.U*n+u.V] = u.W
		if u.U == u.V {
			// The machine diagonal is pinned to 0 by the DP convention
			// (loadWeightsInto); self-loop weights never reach the plane.
			continue
		}
		i := u.U*n + u.V
		nw := inf
		if u.W != graph.NoEdge {
			nw = ppa.Word(u.W)
		}
		// The current word is the resident one unless an earlier update in
		// this batch already staged the same edge.
		ow := words[i]
		for k := len(s.upIdx) - 1; k >= 0; k-- {
			if s.upIdx[k] == i {
				ow = s.upVals[k]
				break
			}
		}
		if nw == ow {
			continue
		}
		if !bumped {
			s.version++
			bumped = true
		}
		reshaped = reshaped || nw == inf || ow == inf
		s.incLog = append(s.incLog, incEntry{ver: s.version, u: int32(u.U), v: int32(u.V), inc: nw > ow})
		s.upIdx = append(s.upIdx, i)
		s.upVals = append(s.upVals, nw)
		if s.wbuf != nil {
			s.wbuf[i] = nw
		}
	}
	if len(s.upIdx) > 0 {
		s.W.LoadSparse(s.upIdx, s.upVals)
	}
	if len(s.incLog) > s.maxIncLog() {
		s.invalidateWarm()
	}
	s.patchInEdges(prev, reshaped)
	return nil
}

// Graph returns the session's current graph: the caller-supplied one
// until the first Update, the session-owned mutated copy afterwards.
func (s *Session) Graph() *graph.Graph { return s.g }

// retain snapshots a finished solve so the next Resolve of the same
// destination can warm-start from it. Storage is reused across snapshots.
// The change log is pruned by the caller (pruneLog).
func (s *Session) retain(dest int, r *Result) {
	n := s.m.N()
	inf := ppa.Infinity(s.m.Bits())
	if s.warm == nil {
		s.warm = make(map[int]*warmDest)
	}
	w := s.warm[dest]
	if w == nil {
		w = &warmDest{
			sow:  make([]ppa.Word, n),
			next: make([]int, n),
		}
		s.warm[dest] = w
	}
	for i := 0; i < n; i++ {
		switch {
		case i == dest:
			w.sow[i] = 0
		case r.Dist[i] == graph.NoEdge:
			w.sow[i] = inf
		default:
			w.sow[i] = ppa.Word(r.Dist[i])
		}
		w.next[i] = r.Next[i]
	}
	w.ver = s.version
}

// pruneLog drops change-log entries no live snapshot can still need:
// the log is append-ordered by version, so everything at or below the
// minimum snapshot version is a dead prefix. It ranges over every
// snapshot, so Resolve and ResolveSweep call it once per call, not once
// per row: between Updates snapshot versions only rise, so one prune at
// the end leaves the log exactly as pruning after every row would.
func (s *Session) pruneLog() {
	if len(s.incLog) == 0 {
		return
	}
	minVer := s.version
	for _, w := range s.warm {
		if w.ver >= s.logFloor && w.ver < minVer {
			minVer = w.ver
		}
	}
	k := 0
	for k < len(s.incLog) && s.incLog[k].ver <= minVer {
		k++
	}
	if k > 0 {
		s.incLog = s.incLog[:copy(s.incLog, s.incLog[k:])]
	}
}
