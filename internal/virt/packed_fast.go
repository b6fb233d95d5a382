package virt

// Register-mask variants of the packed plane-pass ring kernels, used when
// wordBlocks holds (n%64 == 0 and 64%k == 0): every scan row is then a
// whole number of host words and every k-bit block nests exactly inside
// one word, so per-block head scans and cluster fills become shift/mask
// arithmetic on a register instead of Bitset range calls. Semantics are
// identical to the generic kernels in packed.go (the packed-vs-lane
// parity sweep covers both gates).
//
// The physical index of ring i's blocks advances by a constant stride
// (+1 along a physical row, +m down a physical column), carried through
// the block loops' post statements.

import "math/bits"

// blockMask returns the k-bit all-ones mask; k == 64 wraps to ^0.
func (v *Machine) blockMask() uint64 { return uint64(1)<<uint(v.k) - 1 }

// rowWords returns the scan plane's word range parameters for ring i:
// the first word index of the scan row and the word count.
func (v *Machine) rowWords(i int) (w0, nw int) {
	return (i*v.k + v.jt) * v.n / 64, v.n / 64
}

// blockStep returns the physical flat index of ring i's first block and
// the per-block stride.
func (v *Machine) blockStep(i int) (P0, dP int) {
	if v.jVert {
		return i, v.m
	}
	return i * v.m, 1
}

// dataBase returns the []Word addressing of the current pass's ring i:
// flat index of ring position p is base + p*step.
func (v *Machine) dataBase(i int) (base, step int) {
	row := i*v.k + v.jt
	if v.jVert {
		return row, v.n
	}
	return row * v.n, 1
}

func (v *Machine) bcastScanRingFast(i int) {
	k, bm := v.k, v.blockMask()
	w0, nw := v.rowWords(i)
	sw := v.jScan.Words()
	base, step := v.dataBase(i)
	P, dP := v.blockStep(i)
	for wi := 0; wi < nw; wi++ {
		ow := sw[w0+wi]
		for s := 0; s < 64; s, P = s+k, P+dP {
			v.pRecv[P] = floating
			ob := (ow >> uint(s)) & bm
			if ob == 0 {
				// Defined even with no Open lane: a stuck-open fault
				// makes the physical PE inject this operand regardless.
				v.pOpenB[P], v.pInject[P] = false, 0
				continue
			}
			var hb int
			if v.jRev {
				hb = bits.TrailingZeros64(ob)
			} else {
				hb = 63 - bits.LeadingZeros64(ob)
			}
			v.pOpenB[P] = true
			v.pInject[P] = v.jSrc[base+(wi*64+s+hb)*step]
		}
	}
}

func (v *Machine) bcastFillRingFast(i int) {
	k, bm := v.k, v.blockMask()
	w0, nw := v.rowWords(i)
	sw := v.jScan.Words()
	base, step := v.dataBase(i)
	src, dst := v.jSrc, v.jDst
	P, dP := v.blockStep(i)
	for wi := 0; wi < nw; wi++ {
		ow := sw[w0+wi]
		for s := 0; s < 64; s, P = s+k, P+dP {
			carry := v.pRecv[P]
			off := base + (wi*64+s)*step // block's first lane
			ob := (ow >> uint(s)) & bm
			if ob == 0 {
				if carry != floating {
					for j := 0; j < k; j++ {
						dst[off+j*step] = carry
					}
				}
				continue
			}
			if !v.jRev {
				hb := 63 - bits.LeadingZeros64(ob)
				val := src[off+hb*step]
				for j := hb + 1; j < k; j++ {
					dst[off+j*step] = val
				}
				cur := hb
				for {
					nb := ob & (uint64(1)<<uint(cur) - 1)
					if nb == 0 {
						break
					}
					prev := 63 - bits.LeadingZeros64(nb)
					val = src[off+prev*step]
					for j := prev + 1; j <= cur; j++ {
						dst[off+j*step] = val
					}
					cur = prev
				}
				if carry != floating {
					for j := 0; j <= cur; j++ {
						dst[off+j*step] = carry
					}
				}
				continue
			}
			hb := bits.TrailingZeros64(ob)
			val := src[off+hb*step]
			for j := 0; j < hb; j++ {
				dst[off+j*step] = val
			}
			cur := hb
			for {
				nb := ob >> uint(cur) >> 1
				if nb == 0 {
					break
				}
				next := cur + 1 + bits.TrailingZeros64(nb)
				val = src[off+next*step]
				for j := cur; j < next; j++ {
					dst[off+j*step] = val
				}
				cur = next
			}
			if carry != floating {
				for j := cur; j < k; j++ {
					dst[off+j*step] = carry
				}
			}
		}
	}
}

func (v *Machine) worScanRingFast(i int) {
	k, bm := v.k, v.blockMask()
	w0, nw := v.rowWords(i)
	sw, dw := v.jScan.Words(), v.jDrive.Words()
	P, dP := v.blockStep(i)
	for wi := 0; wi < nw; wi++ {
		ow, drv := sw[w0+wi], dw[w0+wi]
		for s := 0; s < 64; s, P = s+k, P+dP {
			ob := (ow >> uint(s)) & bm
			db := (drv >> uint(s)) & bm
			if ob == 0 {
				f := db != 0
				v.pOpenB[P], v.fullB[P], v.tailB[P] = false, f, false
				v.headW[P] = b2w(f)
				continue
			}
			v.pOpenB[P], v.fullB[P] = true, false
			if !v.jRev {
				first := bits.TrailingZeros64(ob)
				last := 63 - bits.LeadingZeros64(ob)
				v.headW[P] = b2w(db&(uint64(1)<<uint(first)-1) != 0)
				v.tailB[P] = db>>uint(last) != 0
				continue
			}
			first := 63 - bits.LeadingZeros64(ob)
			last := bits.TrailingZeros64(ob)
			v.headW[P] = b2w(db>>uint(first)>>1 != 0)
			v.tailB[P] = db&(uint64(1)<<uint(last+1)-1) != 0
		}
	}
}

func (v *Machine) worFillRingFast(i int) {
	k, bm := v.k, v.blockMask()
	w0, nw := v.rowWords(i)
	sw, dw := v.jScan.Words(), v.jDrive.Words()
	zw := v.jWDst.Words()
	P, dP := v.blockStep(i)
	for wi := 0; wi < nw; wi++ {
		ow, drv := sw[w0+wi], dw[w0+wi]
		var out uint64
		for s := 0; s < 64; s, P = s+k, P+dP {
			ob := (ow >> uint(s)) & bm
			db := (drv >> uint(s)) & bm
			if ob == 0 {
				if v.pOr.Get(P) {
					out |= bm << uint(s)
				}
				continue
			}
			if !v.jRev {
				first := bits.TrailingZeros64(ob)
				if v.shiftOr[P] != 0 {
					out |= (uint64(1)<<uint(first) - 1) << uint(s)
				}
				start := first
				for {
					nb := ob >> uint(start) >> 1
					if nb == 0 {
						if v.pOr.Get(P) {
							out |= (bm &^ (uint64(1)<<uint(start) - 1)) << uint(s)
						}
						break
					}
					next := start + 1 + bits.TrailingZeros64(nb)
					cm := (uint64(1)<<uint(next) - 1) &^ (uint64(1)<<uint(start) - 1)
					if db&cm != 0 {
						out |= cm << uint(s)
					}
					start = next
				}
				continue
			}
			first := 63 - bits.LeadingZeros64(ob)
			if v.shiftOr[P] != 0 {
				out |= (bm &^ (uint64(1)<<uint(first+1) - 1)) << uint(s)
			}
			start := first
			for {
				nb := ob & (uint64(1)<<uint(start) - 1)
				if nb == 0 {
					if v.pOr.Get(P) {
						out |= (uint64(1)<<uint(start+1) - 1) << uint(s)
					}
					break
				}
				next := 63 - bits.LeadingZeros64(nb)
				cm := (uint64(1)<<uint(start+1) - 1) &^ (uint64(1)<<uint(next+1) - 1)
				if db&cm != 0 {
					out |= cm << uint(s)
				}
				start = next
			}
		}
		zw[w0+wi] = out
	}
}

// globalOrFast reduces the packed predicate to the packed per-physical-PE
// predicate with one pass over the plane's words, skipping zero words.
func (v *Machine) globalOrFast(pred []uint64) {
	n, m, k, bm := v.n, v.m, v.k, v.blockMask()
	nw := n / 64
	v.pOpen.Fill(false)
	for r := 0; r < n; r++ {
		R := r / k
		for wi := 0; wi < nw; wi++ {
			w := pred[r*nw+wi]
			if w == 0 {
				continue
			}
			for s := 0; s < 64; s += k {
				if w>>uint(s)&bm != 0 {
					v.pOpen.Set(R*m + (wi*64+s)/k)
				}
			}
		}
	}
}
