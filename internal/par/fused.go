package par

import "ppamcp/internal/ppa"

// This file is the fused bit-sliced fast path for the bit-serial
// reductions Min/SelectedMin/Max/SelectedMax.
//
// The interpretive path walks each of the h bit planes through six
// parallel instructions (BitPlane gather → Not → And(enable) → wired-OR →
// And → masked withdraw), each a full traversal of a freshly allocated
// temporary. The fused path first transposes src once into h packed bit
// planes (64x64 bit-matrix tiles, one memory traversal for all planes)
// and then runs each plane as two short word loops around the same
// WiredOrBits fabric transaction.
//
// The fusion is host-side only: it issues exactly the transactions the
// reference path issues, in the same order, against the same fabric — so
// fault semantics, observer event streams and every Metrics counter
// (including Instructions and PEOps, which are charged explicitly to
// mirror the reference pipeline) are identical. That holds for the plain
// machine and for virtualized fabrics alike (virt's packed engine
// likewise shadows its lane-at-a-time test oracle one-for-one).
// fused_test.go and the core fused-parity tests pin this with property
// tests; the interpretive path remains the oracle and is the only path
// under injected faults and for the switch-only OR model.

// fusedOn returns the fabric the fused kernels may run on, or nil when
// the interpretive reference path must be used: fused disabled, a foreign
// fabric that cannot report fault state, or injected switch faults (the
// fault model is defined by the reference ring walk). Both the plain
// machine and virtualized fabrics qualify.
func (a *Array) fusedOn() ppa.Fabric {
	if !a.fused {
		return nil
	}
	f, ok := a.m.(interface{ Faulty() bool })
	if !ok || f.Faulty() {
		return nil
	}
	return a.m
}

// SetFused enables (or disables) the fused bit-sliced reduction kernels.
// Results and cost-model counters are identical either way; this selects
// host execution strategy only. Off by default so the plain Array stays
// the reference semantics; core.Session turns it on.
func (a *Array) SetFused(on bool) { a.fused = on }

// Fused reports whether the fused kernels are enabled.
func (a *Array) Fused() bool { return a.fused }

// slicePlanes transposes the h bit planes of src into packed row-major
// planes: plane j occupies planes[j*wpp : (j+1)*wpp], 64 lanes per word,
// same lane order as a Bitset. One traversal of src covers all planes.
func slicePlanes(planes []uint64, src []ppa.Word, h, wpp int) {
	var tile [64]uint64
	for b := 0; b < wpp; b++ {
		base := b << 6
		lim := len(src) - base
		if lim > 64 {
			lim = 64
		}
		for k := 0; k < lim; k++ {
			tile[k] = uint64(src[base+k])
		}
		for k := lim; k < 64; k++ {
			tile[k] = 0
		}
		ppa.Transpose64(&tile)
		for j := 0; j < h; j++ {
			planes[j*wpp+b] = tile[j]
		}
	}
}

// fusedReduce is the bit-sliced minimum (min=true) or maximum over bus
// clusters. sel == nil means all PEs compete (Min/Max); otherwise only
// the PEs where sel holds (SelectedMin/SelectedMax), and sel itself is
// never written. The instruction charges shadow the reference pipeline
// one-for-one; see the file comment.
func (a *Array) fusedReduce(m ppa.Fabric, src *Var, orientation ppa.Direction, open, sel *Bool, min bool) *Var {
	h := int(a.m.Bits())
	size := a.size()
	wpp := (size + 63) >> 6
	if cap(a.planeBuf) < h*wpp {
		a.planeBuf = make([]uint64, h*wpp)
	}
	planes := a.planeBuf[:h*wpp]
	slicePlanes(planes, src.v, h, wpp)
	for j := 0; j < h; j++ {
		a.instr() // the reference path's per-plane BitPlane gather
	}
	var enable *Bool
	if sel == nil {
		enable = a.True()
	} else {
		enable = sel.Copy()
	}
	drive := a.getBits()
	ew, dw, mw := enable.v.Words(), drive.Words(), a.mask.Words()
	for j := h - 1; j >= 0; j-- {
		pw := planes[j*wpp : (j+1)*wpp]
		// Competitors drive their losing bit value onto the cluster wire
		// (a 0 for minimum, a 1 for maximum)...
		if min {
			for k, e := range ew {
				dw[k] = ^pw[k] & e
			}
		} else {
			for k, e := range ew {
				dw[k] = pw[k] & e
			}
		}
		a.instr()
		a.instr() // Not + And(enable)
		m.WiredOrBits(orientation, open.v, drive, drive)
		// ...and every competitor on a cluster where that value was seen
		// withdraws if it holds the other one (masked store).
		if min {
			for k, d := range dw {
				ew[k] &^= mw[k] & d & pw[k]
			}
		} else {
			for k, d := range dw {
				ew[k] &^= mw[k] & d &^ pw[k]
			}
		}
		a.instr()
		a.instr() // And + masked withdraw
	}
	a.putBits(drive)
	// Statements 11-13, verbatim from the reference path: survivors send
	// their value upstream to the cluster heads, the heads spread it.
	result := src.Copy()
	a.Where(open, func() {
		a.BroadcastInto(result, src, orientation.Opposite(), enable)
	})
	enable.Release()
	out := a.Broadcast(result, orientation, open)
	result.Release()
	return out
}
