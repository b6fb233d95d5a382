// Package par is the data-parallel programming layer of the PPA: the
// semantics of Polymorphic Parallel C (PPC) exposed as a Go API.
//
// An Array wraps a ppa.Machine and maintains the SIMD activity mask
// manipulated by the where/elsewhere construct. Parallel variables (Var for
// h-bit words, Bool for logicals) are allocated from the Array; pure
// elementwise operations compute on all PEs (SIMD lockstep), while mutating
// operations store only where the activity mask is set — exactly the
// store-enable semantics of a SIMD controller.
//
// Parallel logicals and the activity mask itself are stored bit-packed
// (ppa.Bitset, 64 lanes per host word), so every parallel logical
// instruction and every masked store runs as a word-op loop on the host.
// The packing is pure representation: results, metrics and tie-breaking
// are bit-identical to the unpacked reference semantics (property-tested
// in packedref_test.go).
//
// Communication primitives mirror PPC's: Shift, Broadcast, the wired-OR
// reduction Or, the bit-serial Min and SelectedMin of the paper, and the
// global-OR line Any used for loop termination.
package par

import (
	"fmt"

	"ppamcp/internal/ppa"
)

// Array is a PPA programming context: a communication fabric plus the
// activity-mask stack. It is not safe for concurrent use.
type Array struct {
	m    ppa.Fabric
	mask *ppa.Bitset

	// Free-lists recycle variable storage. Temporaries in the hot loops
	// (the h-plane walk of Min/Max, where-mask narrowing, broadcast
	// staging) release their storage back here instead of garbage; the
	// pools only grow to the program's peak live-variable count.
	freeBools []*Bool
	freeVars  []*Var
	freeBits  []*ppa.Bitset
	freeWords [][]ppa.Word
}

// New returns a context on fabric m with all PEs active. The fabric is
// usually a *ppa.Machine; pass a *virt.Machine to run the same program
// block-mapped onto a smaller physical array.
func New(m ppa.Fabric) *Array {
	mask := ppa.NewBitset(m.N() * m.N())
	mask.Fill(true)
	return &Array{m: m, mask: mask}
}

// Machine returns the underlying communication fabric.
func (a *Array) Machine() ppa.Fabric { return a.m }

// N returns the array side.
func (a *Array) N() int { return a.m.N() }

// size returns the PE count.
func (a *Array) size() int { n := a.m.N(); return n * n }

// Where runs body with the activity mask narrowed to the PEs where c holds
// (intersected with the current mask), restoring the mask afterwards. It
// is PPC's `where (c) { ... }`.
func (a *Array) Where(c *Bool, body func()) {
	a.WhereElse(c, body, nil)
}

// WhereElse is PPC's `where (c) { then } elsewhere { els }`: then runs with
// the mask narrowed to c, els with the mask narrowed to !c. Either may be
// nil.
func (a *Array) WhereElse(c *Bool, then, els func()) {
	a.check(c.a)
	saved := a.mask
	if then != nil {
		narrowed := a.getBits()
		narrowed.And(saved, c.v)
		a.mask = narrowed
		then()
		a.mask = saved
		a.putBits(narrowed)
	}
	if els != nil {
		narrowed := a.getBits()
		narrowed.AndNot(saved, c.v)
		a.mask = narrowed
		els()
		a.mask = saved
		a.putBits(narrowed)
	}
}

// Active reports whether PE i is enabled under the current mask.
func (a *Array) Active(i int) bool { return a.mask.Get(i) }

// ActiveCount returns the number of enabled PEs.
func (a *Array) ActiveCount() int { return a.mask.Count() }

// check panics if a parallel value from a different context is mixed in;
// this is always a programming error.
func (a *Array) check(other *Array) {
	if a != other {
		panic("par: mixing parallel values from different Arrays")
	}
}

// instr charges one SIMD instruction executed in lockstep by all PEs.
func (a *Array) instr() {
	a.m.CountInstr()
	a.m.CountPE(int64(a.size()))
}

// getBits returns a (possibly dirty) n*n bitset from the scratch pool.
func (a *Array) getBits() *ppa.Bitset {
	if k := len(a.freeBits); k > 0 {
		b := a.freeBits[k-1]
		a.freeBits = a.freeBits[:k-1]
		return b
	}
	return ppa.NewBitset(a.size())
}

// putBits returns a bitset to the scratch pool.
func (a *Array) putBits(b *ppa.Bitset) { a.freeBits = append(a.freeBits, b) }

// getWords returns a (possibly dirty) n*n word slice from the scratch pool.
func (a *Array) getWords() []ppa.Word {
	if k := len(a.freeWords); k > 0 {
		w := a.freeWords[k-1]
		a.freeWords = a.freeWords[:k-1]
		return w
	}
	return make([]ppa.Word, a.size())
}

// putWords returns a word slice to the scratch pool.
func (a *Array) putWords(w []ppa.Word) { a.freeWords = append(a.freeWords, w) }

// Row returns the parallel variable holding each PE's row coordinate
// (PPC's ROW). The values are materialized by the controller at program
// load; no machine cycles are charged.
func (a *Array) Row() *Var {
	v := a.newVar()
	n := a.N()
	for i := range v.v {
		v.v[i] = ppa.Word(i / n)
	}
	return v
}

// Col returns the parallel variable holding each PE's column coordinate
// (PPC's COL).
func (a *Array) Col() *Var {
	v := a.newVar()
	n := a.N()
	for i := range v.v {
		v.v[i] = ppa.Word(i % n)
	}
	return v
}

func (a *Array) newVar() *Var {
	if k := len(a.freeVars); k > 0 {
		x := a.freeVars[k-1]
		a.freeVars = a.freeVars[:k-1]
		x.released = false
		for i := range x.v {
			x.v[i] = 0
		}
		return x
	}
	return &Var{a: a, v: make([]ppa.Word, a.size())}
}

func (a *Array) newBool() *Bool {
	if k := len(a.freeBools); k > 0 {
		x := a.freeBools[k-1]
		a.freeBools = a.freeBools[:k-1]
		x.released = false
		x.v.Fill(false)
		return x
	}
	return &Bool{a: a, v: ppa.NewBitset(a.size())}
}

// Zeros allocates a parallel word variable initialized to 0 on all PEs.
func (a *Array) Zeros() *Var { return a.newVar() }

// Lit allocates a parallel word variable holding the scalar x on all PEs
// (a controller-broadcast immediate; one instruction).
func (a *Array) Lit(x ppa.Word) *Var {
	ppa.CheckWord(x, a.m.Bits())
	v := a.newVar()
	for i := range v.v {
		v.v[i] = x
	}
	a.instr()
	return v
}

// Inf allocates a parallel variable holding MAXINT on all PEs.
func (a *Array) Inf() *Var { return a.Lit(a.m.Inf()) }

// FromSlice loads host data (row-major, length N*N) into a new parallel
// variable, ignoring the activity mask: this models the host<->array DMA
// path, not a SIMD instruction.
func (a *Array) FromSlice(data []ppa.Word) *Var {
	if len(data) != a.size() {
		panic(fmt.Sprintf("par: FromSlice length %d, want %d", len(data), a.size()))
	}
	h := a.m.Bits()
	v := a.newVar()
	for i, w := range data {
		ppa.CheckWord(w, h)
		v.v[i] = w
	}
	return v
}

// FromBools loads host booleans into a new parallel logical, ignoring the
// mask (DMA path).
func (a *Array) FromBools(data []bool) *Bool {
	if len(data) != a.size() {
		panic(fmt.Sprintf("par: FromBools length %d, want %d", len(data), a.size()))
	}
	b := a.newBool()
	b.v.FromBools(data)
	return b
}

// False allocates a parallel logical initialized to false.
func (a *Array) False() *Bool { return a.newBool() }

// True allocates a parallel logical initialized to true (one instruction).
func (a *Array) True() *Bool {
	b := a.newBool()
	b.v.Fill(true)
	a.instr()
	return b
}
