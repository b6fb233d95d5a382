package par

import (
	"fmt"
	"math/bits"

	"ppamcp/internal/ppa"
)

// Var is a parallel h-bit word variable: one copy per PE, row-major.
type Var struct {
	a        *Array
	v        []ppa.Word
	released bool
}

// Array returns the context the variable belongs to.
func (x *Var) Array() *Array { return x.a }

// Release returns the variable's storage to its Array's scratch pool.
// The variable must not be used afterwards. Purely a host-side
// optimization for temporaries in hot loops; it charges nothing and does
// not exist on the machine. Releasing twice panics.
func (x *Var) Release() {
	if x.released {
		panic("par: Var released twice")
	}
	x.released = true
	x.a.freeVars = append(x.a.freeVars, x)
}

// Slice copies the variable out to the host (DMA path; no cycles charged).
func (x *Var) Slice() []ppa.Word {
	return append([]ppa.Word(nil), x.v...)
}

// Words exposes the variable's machine storage (row-major, length N*N)
// without copying. Read-only for callers: it is the hook fused host
// drivers (core's batched sweep) use to consume a resident plane — the
// weight matrix, the coordinate masks — without a DMA round trip. Writing
// through it would bypass the activity mask and the instruction counters.
func (x *Var) Words() []ppa.Word { return x.v }

// Load overwrites the variable with host data (row-major, length N*N),
// ignoring the activity mask: the host->array DMA path, the in-place
// counterpart of Array.FromSlice. It allocates nothing, which is what lets
// a pooled core.Session accept a new weight matrix without rebuilding its
// fabric.
func (x *Var) Load(data []ppa.Word) {
	if len(data) != len(x.v) {
		panic(fmt.Sprintf("par: Load length %d, want %d", len(data), len(x.v)))
	}
	h := x.a.m.Bits()
	inf := ppa.Infinity(h)
	for _, w := range data {
		if uint64(w) > uint64(inf) { // a negative word wraps above inf
			ppa.CheckWord(w, h)
		}
	}
	copy(x.v, data)
}

// LoadSparse patches the variable at the given flat (row-major) indices
// with the corresponding values, ignoring the activity mask — the sparse
// host->array DMA path. Where Load re-streams the whole plane, LoadSparse
// moves exactly len(idx) words: a k-edge weight update costs O(k) DMA
// instead of O(N²). Like Load it allocates nothing and charges nothing
// (DMA is off the cost model); idx and vals must have equal length and
// every index must be in [0, N*N).
func (x *Var) LoadSparse(idx []int, vals []ppa.Word) {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("par: LoadSparse %d indices, %d values", len(idx), len(vals)))
	}
	h := x.a.m.Bits()
	for k, i := range idx {
		if i < 0 || i >= len(x.v) {
			panic(fmt.Sprintf("par: LoadSparse index %d out of range [0,%d)", i, len(x.v)))
		}
		ppa.CheckWord(vals[k], h)
		x.v[i] = vals[k]
	}
}

// LoadRow overwrites one row of the variable with host data (length N),
// ignoring the activity mask: the striped DMA path warm re-solves use to
// seed row d of a solution plane without touching the rest.
func (x *Var) LoadRow(row int, data []ppa.Word) {
	n := x.a.N()
	if row < 0 || row >= n {
		panic(fmt.Sprintf("par: LoadRow row %d out of range [0,%d)", row, n))
	}
	if len(data) != n {
		panic(fmt.Sprintf("par: LoadRow length %d, want %d", len(data), n))
	}
	h := x.a.m.Bits()
	for j, w := range data {
		ppa.CheckWord(w, h)
		x.v[row*n+j] = w
	}
}

// At returns the value held by PE (row, col) (host read-back).
func (x *Var) At(row, col int) ppa.Word {
	return x.v[row*x.a.N()+col]
}

// Copy returns a fresh parallel variable with the same contents
// (one register-move instruction on all PEs).
func (x *Var) Copy() *Var {
	y := x.a.newVar()
	copy(y.v, x.v)
	x.a.instr()
	return y
}

// assignWordsMasked stores src into dst on the lanes where mask is set:
// whole 64-lane blocks move with copy, partial blocks walk their set bits.
func assignWordsMasked(dst, src []ppa.Word, mask *ppa.Bitset) {
	for wi, w := range mask.Words() {
		if w == 0 {
			continue
		}
		base := wi << 6
		if w == ^uint64(0) {
			copy(dst[base:base+64], src[base:base+64])
			continue
		}
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			dst[i] = src[i]
		}
	}
}

// assignConstMasked stores the scalar c into dst where mask is set.
func assignConstMasked(dst []ppa.Word, c ppa.Word, mask *ppa.Bitset) {
	for wi, w := range mask.Words() {
		if w == 0 {
			continue
		}
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			dst[base+bits.TrailingZeros64(w)] = c
		}
	}
}

// Assign stores u into x where the activity mask is set (x = u).
func (x *Var) Assign(u *Var) {
	x.a.check(u.a)
	assignWordsMasked(x.v, u.v, x.a.mask)
	x.a.instr()
}

// AssignConst stores the scalar w into x where the mask is set.
func (x *Var) AssignConst(w ppa.Word) {
	ppa.CheckWord(w, x.a.m.Bits())
	assignConstMasked(x.v, w, x.a.mask)
	x.a.instr()
}

// binary applies op lanewise producing a fresh variable (pure expression:
// computed on all PEs, stored to a temporary).
func (x *Var) binary(u *Var, op func(a, b ppa.Word) ppa.Word) *Var {
	x.a.check(u.a)
	y := x.a.newVar()
	for i := range y.v {
		y.v[i] = op(x.v[i], u.v[i])
	}
	x.a.instr()
	return y
}

// AddSat returns x + u with saturation at MAXINT (the PPA's path-cost
// addition). Open-coded rather than routed through binary: it is the
// arithmetic workhorse of the DP inner loop and the per-lane indirect
// call showed up in Solve profiles.
func (x *Var) AddSat(u *Var) *Var {
	x.a.check(u.a)
	inf := x.a.m.Inf()
	y := x.a.newVar()
	for i, a := range x.v {
		s := a + u.v[i] // lanes are in [0, inf], so no int64 overflow
		if s > inf {
			s = inf
		}
		y.v[i] = s
	}
	x.a.instr()
	return y
}

// AddSatConst returns x + w with saturation.
func (x *Var) AddSatConst(w ppa.Word) *Var {
	h := x.a.m.Bits()
	ppa.CheckWord(w, h)
	y := x.a.newVar()
	for i := range y.v {
		y.v[i] = ppa.SatAdd(x.v[i], w, h)
	}
	x.a.instr()
	return y
}

// SubClamp returns x - u clamped below at 0 (monus); MAXINT minus anything
// finite stays MAXINT.
func (x *Var) SubClamp(u *Var) *Var {
	inf := x.a.m.Inf()
	return x.binary(u, func(a, b ppa.Word) ppa.Word {
		if a == inf {
			return inf
		}
		if b >= a {
			return 0
		}
		return a - b
	})
}

// MinWith returns the lanewise minimum of x and u (a local two-operand
// min, not the bus reduction).
func (x *Var) MinWith(u *Var) *Var {
	return x.binary(u, func(a, b ppa.Word) ppa.Word {
		if a < b {
			return a
		}
		return b
	})
}

// MaxWith returns the lanewise maximum of x and u.
func (x *Var) MaxWith(u *Var) *Var {
	return x.binary(u, func(a, b ppa.Word) ppa.Word {
		if a > b {
			return a
		}
		return b
	})
}

// Comparison op codes for compare; the switch sits outside the lane loop
// so each comparison runs as a direct branch-predictable loop instead of
// an indirect predicate call per lane (this showed up in Solve profiles).
const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpLe
)

// compare builds a Bool from a lanewise comparison, accumulating 64 lanes
// into each packed word.
func (x *Var) compare(u *Var, op int) *Bool {
	x.a.check(u.a)
	b := x.a.newBool()
	words := b.v.Words()
	n := len(x.v)
	for wi := range words {
		base := wi << 6
		lim := n - base
		if lim > 64 {
			lim = 64
		}
		xs, us := x.v[base:base+lim], u.v[base:base+lim]
		var w uint64
		switch op {
		case cmpEq:
			for k, xv := range xs {
				if xv == us[k] {
					w |= 1 << uint(k)
				}
			}
		case cmpNe:
			for k, xv := range xs {
				if xv != us[k] {
					w |= 1 << uint(k)
				}
			}
		case cmpLt:
			for k, xv := range xs {
				if xv < us[k] {
					w |= 1 << uint(k)
				}
			}
		default:
			for k, xv := range xs {
				if xv <= us[k] {
					w |= 1 << uint(k)
				}
			}
		}
		words[wi] = w
	}
	x.a.instr()
	return b
}

// Eq returns the parallel logical x == u.
func (x *Var) Eq(u *Var) *Bool { return x.compare(u, cmpEq) }

// Ne returns x != u.
func (x *Var) Ne(u *Var) *Bool { return x.compare(u, cmpNe) }

// Lt returns x < u.
func (x *Var) Lt(u *Var) *Bool { return x.compare(u, cmpLt) }

// Le returns x <= u.
func (x *Var) Le(u *Var) *Bool { return x.compare(u, cmpLe) }

// compareConst builds a Bool from a lanewise predicate against a scalar.
func (x *Var) compareConst(w ppa.Word, pred func(a, b ppa.Word) bool) *Bool {
	b := x.a.newBool()
	words := b.v.Words()
	n := len(x.v)
	for wi := range words {
		base := wi << 6
		lim := n - base
		if lim > 64 {
			lim = 64
		}
		var acc uint64
		for k := 0; k < lim; k++ {
			if pred(x.v[base+k], w) {
				acc |= 1 << uint(k)
			}
		}
		words[wi] = acc
	}
	x.a.instr()
	return b
}

// EqConst returns x == w for scalar w.
func (x *Var) EqConst(w ppa.Word) *Bool {
	return x.compareConst(w, func(a, b ppa.Word) bool { return a == b })
}

// NeConst returns x != w.
func (x *Var) NeConst(w ppa.Word) *Bool {
	return x.compareConst(w, func(a, b ppa.Word) bool { return a != b })
}

// LtConst returns x < w.
func (x *Var) LtConst(w ppa.Word) *Bool {
	return x.compareConst(w, func(a, b ppa.Word) bool { return a < b })
}

// BitPlane returns the parallel logical holding bit j of x (PPC's
// bit(x, j)), packed 64 lanes per word with a branch-free gather.
func (x *Var) BitPlane(j uint) *Bool {
	if j >= x.a.m.Bits() {
		panic(fmt.Sprintf("par: bit plane %d out of range for %d-bit machine", j, x.a.m.Bits()))
	}
	b := x.a.newBool()
	words := b.v.Words()
	n := len(x.v)
	for wi := range words {
		base := wi << 6
		lim := n - base
		if lim > 64 {
			lim = 64
		}
		var w uint64
		for k := 0; k < lim; k++ {
			w |= uint64(x.v[base+k]>>j&1) << uint(k)
		}
		words[wi] = w
	}
	x.a.instr()
	return b
}

// Bool is a parallel logical variable: one bit per PE, packed 64 lanes
// per host word (ppa.Bitset).
type Bool struct {
	a        *Array
	v        *ppa.Bitset
	released bool
}

// Array returns the context the logical belongs to.
func (x *Bool) Array() *Array { return x.a }

// Release returns the logical's storage to its Array's scratch pool.
// The logical must not be used afterwards. Host-side only; charges
// nothing. Releasing twice panics.
func (x *Bool) Release() {
	if x.released {
		panic("par: Bool released twice")
	}
	x.released = true
	x.a.freeBools = append(x.a.freeBools, x)
}

// Slice copies the logical out to the host.
func (x *Bool) Slice() []bool { return x.v.Bools() }

// At returns the value held by PE (row, col).
func (x *Bool) At(row, col int) bool { return x.v.Get(row*x.a.N() + col) }

// Copy returns a fresh logical with the same contents.
func (x *Bool) Copy() *Bool {
	y := x.a.newBool()
	y.v.CopyFrom(x.v)
	x.a.instr()
	return y
}

// Assign stores u into x where the mask is set.
func (x *Bool) Assign(u *Bool) {
	x.a.check(u.a)
	xw, uw, mw := x.v.Words(), u.v.Words(), x.a.mask.Words()
	for i, m := range mw {
		xw[i] = xw[i]&^m | uw[i]&m
	}
	x.a.instr()
}

// AssignConst stores the scalar b into x where the mask is set.
func (x *Bool) AssignConst(b bool) {
	xw, mw := x.v.Words(), x.a.mask.Words()
	if b {
		for i, m := range mw {
			xw[i] |= m
		}
	} else {
		for i, m := range mw {
			xw[i] &^= m
		}
	}
	x.a.instr()
}

// And returns x && u.
func (x *Bool) And(u *Bool) *Bool {
	x.a.check(u.a)
	y := x.a.newBool()
	y.v.And(x.v, u.v)
	x.a.instr()
	return y
}

// Or returns x || u.
func (x *Bool) Or(u *Bool) *Bool {
	x.a.check(u.a)
	y := x.a.newBool()
	y.v.Or(x.v, u.v)
	x.a.instr()
	return y
}

// Not returns !x.
func (x *Bool) Not() *Bool {
	y := x.a.newBool()
	y.v.Not(x.v)
	x.a.instr()
	return y
}

// Xor returns x != u lanewise.
func (x *Bool) Xor(u *Bool) *Bool {
	x.a.check(u.a)
	y := x.a.newBool()
	y.v.Xor(x.v, u.v)
	x.a.instr()
	return y
}

// ToVar converts the logical to a word variable holding 0 or 1.
func (x *Bool) ToVar() *Var {
	y := x.a.newVar()
	for wi, w := range x.v.Words() {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			y.v[base+bits.TrailingZeros64(w)] = 1
		}
	}
	x.a.instr()
	return y
}

// Count returns the number of true lanes (host-side read-back, used by
// instrumentation and tests; charges nothing).
func (x *Bool) Count() int { return x.v.Count() }
