package par

import "ppamcp/internal/ppa"

// OrViaSwitches computes the same cluster OR as Or (PPC's or(x, dir, L))
// WITHOUT assuming a wired-OR bus mode: it uses only plain segmented
// broadcasts and switch reconfiguration, the weaker hardware reading.
//
// Cycle 1: every driving PE and every cluster head opens its switch;
// drivers inject 1, non-driving heads inject 0. Under the cut-ring rule
// each head then receives the injection of the nearest open PE upstream —
// exactly the OR of the *upstream* cluster (a driver if there is one, the
// previous head's 0 otherwise). Cycle 2 redistributes: heads hold the
// collected bit and a broadcast in the *opposite* direction delivers each
// cluster its own OR (every member's nearest upstream head in reverse
// flow is the next head downstream, the collector of its cluster).
//
// Requires at least one head per ring: on a headless ring the collected
// bits have nowhere to live and the result is all-false there, whereas
// the wired-OR Or returns the whole-ring OR (the paper's algorithms
// always configure heads). Cost: 2 bus cycles (vs 1 wired-OR cycle).
//
// Under this bus model the paper's min() listing is exact as printed:
// its statement-9 `broadcast(or(...))` is cycle 2. See DESIGN.md,
// deviation 3a.
func (a *Array) OrViaSwitches(x *Bool, dir ppa.Direction, open *Bool) *Bool {
	a.check(x.a)
	a.check(open.a)
	inject := x.ToVar()
	cuts := open.Or(x)
	collected := a.Broadcast(inject, dir, cuts)
	hold := a.Zeros()
	a.Where(open, func() {
		hold.Assign(collected)
	})
	distributed := a.Broadcast(hold, dir.Opposite(), open)
	out := distributed.NeConst(0)
	distributed.Release()
	hold.Release()
	collected.Release()
	cuts.Release()
	inject.Release()
	return out
}

// MinViaSwitches is Min implemented on the switch-only bus model: each
// bit plane costs 2 broadcasts instead of 1 wired-OR cycle, for a total
// of 2h+2 bus cycles — still Θ(h), which is why the paper's complexity
// result does not depend on which bus model the hardware provides
// (ablation E7).
func (a *Array) MinViaSwitches(src *Var, orientation ppa.Direction, open *Bool) *Var {
	return a.minimumOn(src, orientation, open, a.True(), true, (*Array).OrViaSwitches)
}

// SelectedMinViaSwitches is SelectedMin on the switch-only bus model.
func (a *Array) SelectedMinViaSwitches(src *Var, orientation ppa.Direction, open, sel *Bool) *Var {
	a.check(sel.a)
	return a.minimumOn(src, orientation, open, sel, false, (*Array).OrViaSwitches)
}

// MinSwitchCost returns the bus transactions of one MinViaSwitches on an
// h-bit machine: 2h+2 broadcasts, no wired-OR cycles.
func MinSwitchCost(h uint) (wiredOr, busCycles int64) {
	return 0, 2*int64(h) + 2
}

// FirstSet marks, within each bus cluster defined by open, the first PE
// in flow order at which x is true (all other lanes come back false) —
// the classic O(1) "leftmost one" primitive of reconfigurable-mesh
// algorithms. A PE is its cluster's first driver exactly when it drives
// and no driver lies between its cluster head and itself, which one
// switch-configured broadcast decides: drivers and heads open their
// switches, drivers inject 1, heads inject 0, and a driver that receives
// 0 from upstream is first. A driving head is always its cluster's first
// driver (what it receives comes from the upstream cluster, so it is
// excused from the upstream-silence test). Cost: 1 bus cycle.
//
// Like OrViaSwitches, it requires at least one head per ring (the heads
// provide the 0 floor; on a headless ring a lone driver sees its own
// wrapped 1 and is suppressed).
func (a *Array) FirstSet(x *Bool, dir ppa.Direction, open *Bool) *Bool {
	a.check(x.a)
	a.check(open.a)
	inject := x.ToVar()
	cuts := open.Or(x)
	upstream := a.Broadcast(inject, dir, cuts)
	silent := upstream.EqConst(0)
	excused := open.Or(silent)
	out := x.And(excused)
	excused.Release()
	silent.Release()
	upstream.Release()
	cuts.Release()
	inject.Release()
	return out
}
