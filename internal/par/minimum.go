package par

import "ppamcp/internal/ppa"

// Min is PPC's min(src, orientation, L): within each bus cluster defined
// by L it computes the minimum of src over all PEs of the cluster and
// delivers it to every PE of the cluster.
//
// The implementation follows the paper's listing: the values are examined
// bit-serially from the most significant plane down; at each plane, a
// wired-OR over the cluster discovers whether any still-enabled PE holds a
// 0, in which case every enabled PE holding a 1 withdraws. After h planes
// exactly the minima remain enabled; their value is sent to the cluster
// head with a reverse broadcast (statements 11-12) and re-broadcast to the
// whole cluster (statement 13).
//
// One deviation from the listing: statement 9 wraps the wired-OR in a
// second broadcast. Under the wired-OR bus model the OR is already
// delivered to every cluster member, and re-broadcasting it actively
// corrupts head lanes on rings that host several clusters, so the
// redundant transaction is dropped (see DESIGN.md).
//
// Hardware-faithful caveat that remains: statement 12's reverse broadcast
// segments the bus by `enable` alone, so when a ring hosts *multiple*
// clusters and a cluster's unique minimum sits exactly at its head, the
// head fetches a value from the neighbouring cluster. The MCP algorithm
// always uses whole-ring clusters (one Open PE per ring), where this
// cannot occur; TestMinMultiClusterHeadArtifact documents the behaviour.
//
// Cost: h wired-OR cycles + 2 word broadcasts, i.e. Θ(h) bus
// transactions — the paper's central complexity claim, measured by
// experiment E1.
func (a *Array) Min(src *Var, orientation ppa.Direction, open *Bool) *Var {
	return a.minimumOn(src, orientation, open, a.True(), true, (*Array).Or)
}

// SelectedMin is PPC's selected_min(src, orientation, L, sel): identical to
// Min except that only the PEs where sel holds compete; clusters whose
// selected subset is empty float and return the head's original src value.
// The MCP algorithm uses it with src = COL to extract the (smallest) column
// index among the PEs that achieved the row minimum. sel itself is never
// written (a private enable set is copied off it).
func (a *Array) SelectedMin(src *Var, orientation ppa.Direction, open, sel *Bool) *Var {
	a.check(sel.a)
	return a.minimumOn(src, orientation, open, sel, false, (*Array).Or)
}

// minimumOn is the bit-serial minimum parameterized by the cluster-OR
// primitive: (*Array).Or on the wired-OR bus model, (*Array).OrViaSwitches
// on the switch-only model. sel is the selection mask; owned says whether
// the callee may mutate it directly (Min hands over a fresh all-true set).
// When it may not, a private copy is taken lazily at the first withdrawal,
// so the caller's selection is never written.
func (a *Array) minimumOn(src *Var, orientation ppa.Direction, open, sel *Bool, owned bool,
	orFn func(*Array, *Bool, ppa.Direction, *Bool) *Bool) *Var {
	a.check(src.a)
	a.check(open.a)
	h := a.m.Bits()
	enable := sel
	for j := int(h) - 1; j >= 0; j-- {
		bit := src.BitPlane(uint(j))
		nb := bit.Not()
		drive := nb.And(enable)
		seenZero := orFn(a, drive, orientation, open)
		// where (seenZero && bit) enable = 0
		cond := seenZero.And(bit)
		if !owned {
			enable = sel.Copy()
			owned = true
		}
		a.Where(cond, func() {
			enable.AssignConst(false)
		})
		cond.Release()
		seenZero.Release()
		drive.Release()
		nb.Release()
		bit.Release()
	}
	// Statements 11-12: send a surviving minimum to the cluster heads.
	// On a cluster whose enabled subset is empty the bus floats and the
	// head keeps its original src value.
	result := src.Copy()
	a.Where(open, func() {
		a.BroadcastInto(result, src, orientation.Opposite(), enable)
	})
	if owned {
		enable.Release()
	}
	// Statement 13: spread the head's value over the cluster.
	out := a.Broadcast(result, orientation, open)
	result.Release()
	return out
}

// Max is the dual of Min: within each bus cluster defined by open it
// computes the maximum of src and delivers it to every PE of the cluster,
// with the same bit-serial structure (a wired-OR per plane discovers
// whether any still-enabled PE holds a 1; if so, enabled PEs holding a 0
// withdraw). Not used by the paper's MCP, but part of the machine's
// natural primitive set — same Θ(h) cost.
func (a *Array) Max(src *Var, orientation ppa.Direction, open *Bool) *Var {
	return a.maximum(src, orientation, open, a.True(), true)
}

// SelectedMax is Max restricted to the PEs where sel holds; like
// SelectedMin it never writes sel.
func (a *Array) SelectedMax(src *Var, orientation ppa.Direction, open, sel *Bool) *Var {
	a.check(sel.a)
	return a.maximum(src, orientation, open, sel, false)
}

// maximum mirrors minimumOn (including the lazy selection copy) with the
// bit roles flipped; only the wired-OR bus model is implemented for Max.
func (a *Array) maximum(src *Var, orientation ppa.Direction, open, sel *Bool, owned bool) *Var {
	a.check(src.a)
	a.check(open.a)
	h := a.m.Bits()
	enable := sel
	for j := int(h) - 1; j >= 0; j-- {
		bit := src.BitPlane(uint(j))
		drive := bit.And(enable)
		seenOne := a.Or(drive, orientation, open)
		// where (seenOne && !bit) enable = 0
		nb := bit.Not()
		cond := seenOne.And(nb)
		if !owned {
			enable = sel.Copy()
			owned = true
		}
		a.Where(cond, func() {
			enable.AssignConst(false)
		})
		cond.Release()
		nb.Release()
		seenOne.Release()
		drive.Release()
		bit.Release()
	}
	result := src.Copy()
	a.Where(open, func() {
		a.BroadcastInto(result, src, orientation.Opposite(), enable)
	})
	if owned {
		enable.Release()
	}
	out := a.Broadcast(result, orientation, open)
	result.Release()
	return out
}

// MinCost returns the exact number of bus transactions one Min/SelectedMin
// issues on an h-bit machine: h wired-OR cycles plus 2 broadcasts. Used by
// the analytical cost model in the benchmarks.
func MinCost(h uint) (wiredOr, busCycles int64) {
	return int64(h), 2
}
