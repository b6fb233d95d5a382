package ppa

import (
	"fmt"
	"math/bits"
)

// Bitset is a packed array of boolean lanes: lane i lives in bit i&63 of
// word i>>6, 64 lanes per machine word. It is the storage behind every
// parallel logical value and switch configuration in the simulator, so
// that one SIMD logical instruction over n*n lanes costs n*n/64 host word
// operations instead of n*n byte operations.
//
// Invariant: the tail bits of the last word (lanes >= Len) are always
// zero; every mutating method maintains it.
type Bitset struct {
	n int
	w []uint64
}

// NewBitset returns an all-false set of n lanes.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic(fmt.Sprintf("ppa: negative bitset size %d", n))
	}
	return &Bitset{n: n, w: make([]uint64, (n+63)>>6)}
}

// NewBitsetFromBools packs host booleans into a fresh Bitset.
func NewBitsetFromBools(data []bool) *Bitset {
	b := NewBitset(len(data))
	b.FromBools(data)
	return b
}

// Len returns the number of lanes.
func (b *Bitset) Len() int { return b.n }

// Words exposes the packed storage (64 lanes per word, lane 0 in bit 0 of
// word 0). The caller must keep the tail-bits-zero invariant.
func (b *Bitset) Words() []uint64 { return b.w }

// tailMask returns the valid-bit mask of the last storage word, or an
// all-ones mask when the lane count is a multiple of 64.
func (b *Bitset) tailMask() uint64 {
	if r := uint(b.n) & 63; r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// Get returns lane i.
func (b *Bitset) Get(i int) bool { return b.w[i>>6]>>(uint(i)&63)&1 == 1 }

// Set makes lane i true.
func (b *Bitset) Set(i int) { b.w[i>>6] |= 1 << (uint(i) & 63) }

// Unset makes lane i false.
func (b *Bitset) Unset(i int) { b.w[i>>6] &^= 1 << (uint(i) & 63) }

// SetTo stores v into lane i.
func (b *Bitset) SetTo(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Unset(i)
	}
}

// Fill stores v into every lane.
func (b *Bitset) Fill(v bool) {
	if len(b.w) == 0 {
		return
	}
	var x uint64
	if v {
		x = ^uint64(0)
	}
	for i := range b.w {
		b.w[i] = x
	}
	b.w[len(b.w)-1] &= b.tailMask()
}

// CopyFrom copies x into b (same lane count required).
func (b *Bitset) CopyFrom(x *Bitset) {
	b.checkSame(x)
	copy(b.w, x.w)
}

func (b *Bitset) checkSame(others ...*Bitset) {
	for _, o := range others {
		if o.n != b.n {
			panic(fmt.Sprintf("ppa: bitset size mismatch %d vs %d", b.n, o.n))
		}
	}
}

// And stores x AND y into b (lengths must match; b may alias either).
func (b *Bitset) And(x, y *Bitset) {
	b.checkSame(x, y)
	for i := range b.w {
		b.w[i] = x.w[i] & y.w[i]
	}
}

// AndNot stores x AND NOT y into b.
func (b *Bitset) AndNot(x, y *Bitset) {
	b.checkSame(x, y)
	for i := range b.w {
		b.w[i] = x.w[i] &^ y.w[i]
	}
}

// Or stores x OR y into b.
func (b *Bitset) Or(x, y *Bitset) {
	b.checkSame(x, y)
	for i := range b.w {
		b.w[i] = x.w[i] | y.w[i]
	}
}

// Xor stores x XOR y into b.
func (b *Bitset) Xor(x, y *Bitset) {
	b.checkSame(x, y)
	for i := range b.w {
		b.w[i] = x.w[i] ^ y.w[i]
	}
}

// Not stores NOT x into b.
func (b *Bitset) Not(x *Bitset) {
	b.checkSame(x)
	if len(b.w) == 0 {
		return
	}
	for i := range b.w {
		b.w[i] = ^x.w[i]
	}
	b.w[len(b.w)-1] &= b.tailMask()
}

// Count returns the number of true lanes.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any lane is true.
func (b *Bitset) Any() bool {
	for _, w := range b.w {
		if w != 0 {
			return true
		}
	}
	return false
}

// AnyRange reports whether any lane in [lo, hi) is true.
func (b *Bitset) AnyRange(lo, hi int) bool {
	if lo >= hi {
		return false
	}
	wl, wh := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if wl == wh {
		return b.w[wl]&loMask&hiMask != 0
	}
	if b.w[wl]&loMask != 0 {
		return true
	}
	for i := wl + 1; i < wh; i++ {
		if b.w[i] != 0 {
			return true
		}
	}
	return b.w[wh]&hiMask != 0
}

// FillRange stores v into every lane in [lo, hi).
func (b *Bitset) FillRange(lo, hi int, v bool) {
	if lo >= hi {
		return
	}
	wl, wh := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if wl == wh {
		if v {
			b.w[wl] |= loMask & hiMask
		} else {
			b.w[wl] &^= loMask & hiMask
		}
		return
	}
	if v {
		b.w[wl] |= loMask
		for i := wl + 1; i < wh; i++ {
			b.w[i] = ^uint64(0)
		}
		b.w[wh] |= hiMask
	} else {
		b.w[wl] &^= loMask
		for i := wl + 1; i < wh; i++ {
			b.w[i] = 0
		}
		b.w[wh] &^= hiMask
	}
}

// NextSet returns the first true lane in [from, to), or -1 (the
// trailing-zero scan of the packed representation).
func (b *Bitset) NextSet(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > b.n {
		to = b.n
	}
	if from >= to {
		return -1
	}
	wi := from >> 6
	w := b.w[wi] >> (uint(from) & 63)
	if w != 0 {
		i := from + bits.TrailingZeros64(w)
		if i < to {
			return i
		}
		return -1
	}
	for wi++; wi<<6 < to; wi++ {
		if b.w[wi] != 0 {
			i := wi<<6 + bits.TrailingZeros64(b.w[wi])
			if i < to {
				return i
			}
			return -1
		}
	}
	return -1
}

// PrevSet returns the last true lane in [from, to), or -1.
func (b *Bitset) PrevSet(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > b.n {
		to = b.n
	}
	if from >= to {
		return -1
	}
	hi := to - 1
	wi := hi >> 6
	w := b.w[wi] << (63 - uint(hi)&63)
	if w != 0 {
		i := hi - bits.LeadingZeros64(w)
		if i >= from {
			return i
		}
		return -1
	}
	for wi--; wi >= 0 && (wi+1)<<6 > from; wi-- {
		if b.w[wi] != 0 {
			i := wi<<6 + 63 - bits.LeadingZeros64(b.w[wi])
			if i >= from {
				return i
			}
			return -1
		}
	}
	return -1
}

// FromBools packs host booleans (length must equal Len).
func (b *Bitset) FromBools(data []bool) {
	if len(data) != b.n {
		panic(fmt.Sprintf("ppa: FromBools length %d, want %d", len(data), b.n))
	}
	for wi := range b.w {
		base := wi << 6
		lim := b.n - base
		if lim > 64 {
			lim = 64
		}
		var w uint64
		for k := 0; k < lim; k++ {
			var bit uint64
			if data[base+k] {
				bit = 1
			}
			w |= bit << uint(k)
		}
		b.w[wi] = w
	}
}

// ToBools unpacks into dst (length must equal Len).
func (b *Bitset) ToBools(dst []bool) {
	if len(dst) != b.n {
		panic(fmt.Sprintf("ppa: ToBools length %d, want %d", len(dst), b.n))
	}
	for i := range dst {
		dst[i] = false
	}
	for wi, w := range b.w {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			dst[base+bits.TrailingZeros64(w)] = true
		}
	}
}

// Bools returns a freshly allocated unpacked copy.
func (b *Bitset) Bools() []bool {
	dst := make([]bool, b.n)
	b.ToBools(dst)
	return dst
}

// TransposeBits writes the transpose of src — read as an n x n row-major
// bit matrix — into dst (both must have n*n lanes; dst must not alias
// src). When n is a multiple of 64 it runs on 64x64 tiles with the
// classic word-recursive block-swap transpose, costing O(n²/64) word
// operations; otherwise it scatters the set bits individually.
func TransposeBits(dst, src *Bitset, n int) {
	if src.n != n*n || dst.n != n*n {
		panic(fmt.Sprintf("ppa: transpose of %d/%d lanes, want %d", src.n, dst.n, n*n))
	}
	if n&63 == 0 {
		stride := n >> 6 // words per matrix row
		var tile [64]uint64
		for ti := 0; ti < stride; ti++ {
			for tj := 0; tj < stride; tj++ {
				for k := 0; k < 64; k++ {
					tile[k] = src.w[(ti<<6+k)*stride+tj]
				}
				Transpose64(&tile)
				for k := 0; k < 64; k++ {
					dst.w[(tj<<6+k)*stride+ti] = tile[k]
				}
			}
		}
		return
	}
	dst.Fill(false)
	for wi, w := range src.w {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			b := base + bits.TrailingZeros64(w)
			dst.Set(b%n*n + b/n)
		}
	}
}

// Transpose64 transposes a 64x64 bit matrix in place (row k = a[k], column
// j = bit j) by recursive block swapping.
func Transpose64(a *[64]uint64) {
	for j := uint(32); j != 0; j >>= 1 {
		m := ^uint64(0) / (1<<j + 1) // low j bits of every 2j-bit block
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := ((a[k] >> j) ^ a[k+int(j)]) & m
			a[k] ^= t << j
			a[k+int(j)] ^= t
		}
	}
}
