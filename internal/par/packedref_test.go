package par

import (
	"math/rand"
	"testing"

	"ppamcp/internal/ppa"
)

// This file pins the packed parallel-variable layer (bit-packed logicals,
// packed activity mask, free-list pooling) against a plain per-lane
// reference model: an unpacked []bool / []Word shadow of every live value
// and of the where-mask stack, updated by the textbook lane loops. A
// randomized program — nested where blocks, masked stores, logical and
// arithmetic expressions, bus reductions, interleaved Release calls that
// force pool reuse — must leave the packed and reference states bit-
// identical after every step, with faults injected and worker pools on.

// refCtx is the unpacked shadow interpreter.
type refCtx struct {
	n    int
	mask []bool
	m    *ppa.Machine // mirror fabric: same side, faults
}

// broadcast and wiredOr run one mirror-fabric transaction on the
// reference's unpacked lane sets, packing them with FromBools.
func (r *refCtx) broadcast(d ppa.Direction, open []bool, src, dst []ppa.Word) {
	r.m.BroadcastBits(d, ppa.NewBitsetFromBools(open), src, dst)
}

func (r *refCtx) wiredOr(d ppa.Direction, open, drive, dst []bool) {
	out := ppa.NewBitset(len(dst))
	r.m.WiredOrBits(d, ppa.NewBitsetFromBools(open), ppa.NewBitsetFromBools(drive), out)
	out.ToBools(dst)
}

func (r *refCtx) assignWords(dst, src []ppa.Word) {
	for i := range dst {
		if r.mask[i] {
			dst[i] = src[i]
		}
	}
}

func (r *refCtx) assignBools(dst, src []bool) {
	for i := range dst {
		if r.mask[i] {
			dst[i] = src[i]
		}
	}
}

// slot pairs a live packed value with its reference shadow.
type boolSlot struct {
	b   *Bool
	ref []bool
}

type varSlot struct {
	v   *Var
	ref []ppa.Word
}

func checkBool(t *testing.T, step int, b *Bool, ref []bool) {
	t.Helper()
	got := b.Slice()
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("step %d: packed Bool lane %d = %v, reference %v", step, i, got[i], ref[i])
		}
	}
}

func checkVar(t *testing.T, step int, v *Var, ref []ppa.Word) {
	t.Helper()
	got := v.Slice()
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("step %d: packed Var lane %d = %d, reference %d", step, i, got[i], ref[i])
		}
	}
}

func TestPackedParMatchesReferenceLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	sides := []int{1, 2, 3, 5, 8, 13, 16, 64}
	for trial := 0; trial < 40; trial++ {
		n := sides[rng.Intn(len(sides))]
		size := n * n
		h := uint(4 + rng.Intn(6))
		inf := ppa.Infinity(h)
		workers := 1 + rng.Intn(4)
		m := ppa.New(n, h, ppa.WithWorkers(workers))
		ref := &refCtx{n: n, mask: make([]bool, size), m: ppa.New(n, h)}
		for i := range ref.mask {
			ref.mask[i] = true
		}
		if n > 2 && rng.Intn(2) == 0 {
			for f := 1 + rng.Intn(3); f > 0; f-- {
				pe, kind := rng.Intn(size), ppa.FaultKind(rng.Intn(2))
				m.InjectFault(pe, kind)
				ref.m.InjectFault(pe, kind)
			}
		}
		a := New(m)

		randWords := func() []ppa.Word {
			w := make([]ppa.Word, size)
			for i := range w {
				w[i] = ppa.Word(rng.Int63n(int64(inf) + 1))
			}
			return w
		}
		randRefBools := func(p float64) []bool {
			b := make([]bool, size)
			for i := range b {
				b[i] = rng.Float64() < p
			}
			return b
		}

		bools := make([]boolSlot, 4)
		vars := make([]varSlot, 4)
		for i := range bools {
			rb := randRefBools(0.4)
			bools[i] = boolSlot{a.FromBools(rb), rb}
		}
		for i := range vars {
			rw := randWords()
			vars[i] = varSlot{a.FromSlice(rw), append([]ppa.Word(nil), rw...)}
		}

		// replace retires a slot's packed value through the pool so later
		// allocations must reuse (and correctly clear) recycled storage.
		replaceBool := func(k int, b *Bool, refv []bool) {
			bools[k].b.Release()
			bools[k] = boolSlot{b, refv}
		}
		replaceVar := func(k int, v *Var, refv []ppa.Word) {
			vars[k].v.Release()
			vars[k] = varSlot{v, refv}
		}

		var step func(depth int, budget *int)
		step = func(depth int, budget *int) {
			for *budget > 0 {
				*budget--
				x := &bools[rng.Intn(len(bools))]
				y := &bools[rng.Intn(len(bools))]
				u := &vars[rng.Intn(len(vars))]
				w := &vars[rng.Intn(len(vars))]
				k := rng.Intn(len(bools))
				kv := rng.Intn(len(vars))
				switch op := rng.Intn(14); op {
				case 0: // logical expressions
					refv := make([]bool, size)
					var got *Bool
					switch rng.Intn(4) {
					case 0:
						got = x.b.And(y.b)
						for i := range refv {
							refv[i] = x.ref[i] && y.ref[i]
						}
					case 1:
						got = x.b.Or(y.b)
						for i := range refv {
							refv[i] = x.ref[i] || y.ref[i]
						}
					case 2:
						got = x.b.Xor(y.b)
						for i := range refv {
							refv[i] = x.ref[i] != y.ref[i]
						}
					default:
						got = x.b.Not()
						for i := range refv {
							refv[i] = !x.ref[i]
						}
					}
					checkBool(t, *budget, got, refv)
					replaceBool(k, got, refv)
				case 1: // masked Bool assign
					x.b.Assign(y.b)
					ref.assignBools(x.ref, y.ref)
					checkBool(t, *budget, x.b, x.ref)
				case 2: // masked Bool constant store
					c := rng.Intn(2) == 0
					x.b.AssignConst(c)
					for i := range x.ref {
						if ref.mask[i] {
							x.ref[i] = c
						}
					}
					checkBool(t, *budget, x.b, x.ref)
				case 3: // masked Var assign / constant store
					if rng.Intn(2) == 0 {
						u.v.Assign(w.v)
						ref.assignWords(u.ref, w.ref)
					} else {
						c := ppa.Word(rng.Int63n(int64(inf) + 1))
						u.v.AssignConst(c)
						for i := range u.ref {
							if ref.mask[i] {
								u.ref[i] = c
							}
						}
					}
					checkVar(t, *budget, u.v, u.ref)
				case 4: // comparisons
					refv := make([]bool, size)
					var got *Bool
					switch rng.Intn(3) {
					case 0:
						got = u.v.Eq(w.v)
						for i := range refv {
							refv[i] = u.ref[i] == w.ref[i]
						}
					case 1:
						got = u.v.Lt(w.v)
						for i := range refv {
							refv[i] = u.ref[i] < w.ref[i]
						}
					default:
						c := ppa.Word(rng.Int63n(int64(inf) + 1))
						got = u.v.LtConst(c)
						for i := range refv {
							refv[i] = u.ref[i] < c
						}
					}
					checkBool(t, *budget, got, refv)
					replaceBool(k, got, refv)
				case 5: // bit plane
					j := uint(rng.Intn(int(h)))
					got := u.v.BitPlane(j)
					refv := make([]bool, size)
					for i := range refv {
						refv[i] = u.ref[i]>>j&1 == 1
					}
					checkBool(t, *budget, got, refv)
					replaceBool(k, got, refv)
				case 6: // ToVar
					got := x.b.ToVar()
					refv := make([]ppa.Word, size)
					for i := range refv {
						if x.ref[i] {
							refv[i] = 1
						}
					}
					checkVar(t, *budget, got, refv)
					replaceVar(kv, got, refv)
				case 7: // arithmetic expression
					got := u.v.AddSat(w.v)
					refv := make([]ppa.Word, size)
					for i := range refv {
						refv[i] = ppa.SatAdd(u.ref[i], w.ref[i], h)
					}
					checkVar(t, *budget, got, refv)
					replaceVar(kv, got, refv)
				case 8: // wired-OR bus reduction
					d := ppa.Direction(rng.Intn(4))
					got := a.Or(x.b, d, y.b)
					refv := make([]bool, size)
					ref.wiredOr(d, y.ref, x.ref, refv)
					checkBool(t, *budget, got, refv)
					replaceBool(k, got, refv)
				case 9: // segmented word broadcast
					d := ppa.Direction(rng.Intn(4))
					got := a.Broadcast(u.v, d, x.b)
					refv := make([]ppa.Word, size)
					ref.broadcast(d, x.ref, u.ref, refv)
					checkVar(t, *budget, got, refv)
					replaceVar(kv, got, refv)
				case 10: // masked BroadcastInto
					d := ppa.Direction(rng.Intn(4))
					a.BroadcastInto(u.v, w.v, d, x.b)
					tmp := append([]ppa.Word(nil), u.ref...)
					ref.broadcast(d, x.ref, w.ref, tmp)
					ref.assignWords(u.ref, tmp)
					checkVar(t, *budget, u.v, u.ref)
				case 11: // global-OR line
					want := false
					for _, p := range x.ref {
						want = want || p
					}
					if got := a.Any(x.b); got != want {
						t.Fatalf("step %d: Any = %v, reference %v", *budget, got, want)
					}
				case 12: // nested where / elsewhere
					if depth >= 3 {
						continue
					}
					saved := append([]bool(nil), ref.mask...)
					// Private copy of the condition: inner ops may release
					// and recycle the slot's Bool, but a live where
					// condition must stay untouched for the elsewhere arm.
					cb := x.b.Copy()
					cond := append([]bool(nil), x.ref...)
					inner := rng.Intn(3) + 1
					a.WhereElse(cb, func() {
						for i := range ref.mask {
							ref.mask[i] = saved[i] && cond[i]
						}
						step(depth+1, &inner)
					}, func() {
						for i := range ref.mask {
							ref.mask[i] = saved[i] && !cond[i]
						}
						inner2 := rng.Intn(3) + 1
						step(depth+1, &inner2)
					})
					cb.Release()
					copy(ref.mask, saved)
				default: // pool churn: release and reallocate in place
					rw := randWords()
					replaceVar(kv, a.FromSlice(rw), append([]ppa.Word(nil), rw...))
					rb := randRefBools(0.3)
					replaceBool(k, a.FromBools(rb), rb)
				}
			}
		}
		budget := 60
		step(0, &budget)

		for i := range bools {
			checkBool(t, -1, bools[i].b, bools[i].ref)
		}
		for i := range vars {
			checkVar(t, -1, vars[i].v, vars[i].ref)
		}
	}
}

// TestReleaseTwicePanics pins the pool's double-free guard.
func TestReleaseTwicePanics(t *testing.T) {
	a := New(ppa.New(4, 8))
	b := a.False()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

// TestPoolReuseIsClean pins that recycled storage comes back zeroed: a
// released all-ones logical and a released saturated variable must not
// leak into the next allocation.
func TestPoolReuseIsClean(t *testing.T) {
	a := New(ppa.New(4, 8))
	b := a.True()
	v := a.Inf()
	b.Release()
	v.Release()
	nb := a.False()
	nv := a.Zeros()
	for i := 0; i < 16; i++ {
		if nb.At(i/4, i%4) {
			t.Fatalf("recycled Bool lane %d not cleared", i)
		}
		if nv.At(i/4, i%4) != 0 {
			t.Fatalf("recycled Var lane %d not cleared", i)
		}
	}
}
