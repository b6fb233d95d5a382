package ppa

// Fabric is the communication-fabric contract the programming layers
// build on: an n x n array addressed in row-major order with segmented
// broadcast buses, a wired-OR bus mode, nearest-neighbour shifts and a
// global-OR line, all charged to a Metrics accumulator. Switch
// configurations, wired-OR planes and predicates are packed Bitsets of
// N*N lanes (one bit per PE); word operands are []Word of N*N elements.
//
// Machine implements it directly; virt.Machine implements it by
// simulating a large logical array on a smaller physical Machine
// (block mapping), which is how the paper's one-element-per-PE assumption
// is lifted without changing any algorithm code.
//
// The semantics and aliasing rules below hold for every implementation.
type Fabric interface {
	// N is the (logical) array side.
	N() int
	// Bits is the word width h.
	Bits() uint
	// Inf is the MAXINT sentinel, 2^h - 1.
	Inf() Word
	// BroadcastBits performs one segmented-bus transaction in direction
	// d. PEs whose open lane is set cut their ring and inject src
	// downstream; every PE receives into dst the operand of the nearest
	// Open PE strictly upstream of it (wrapping). On a ring with no Open
	// PE the bus floats and dst is left unchanged there. dst may alias
	// src.
	BroadcastBits(d Direction, open *Bitset, src, dst []Word)
	// WiredOrBits performs one 1-bit wired-OR bus transaction in
	// direction d. Open PEs segment each ring into clusters (an Open head
	// plus the downstream Short PEs up to, but excluding, the next Open
	// PE, wrapping); every PE drives its drive lane onto its cluster's
	// wire and reads back the OR over the whole cluster into dst. A ring
	// with no Open PE is one closed cluster of all n PEs. dst may alias
	// drive; it must not alias open.
	WiredOrBits(d Direction, open, drive, dst *Bitset)
	// Shift moves every word one PE in direction d with torus wrap:
	// dst[p] = src[neighbour of p on the side opposite d]. dst may alias
	// src.
	Shift(d Direction, src, dst []Word)
	// GlobalOrBits reports whether any lane of pred is set.
	GlobalOrBits(pred *Bitset) bool
	// CountPE charges local ALU operations; CountInstr one SIMD
	// instruction.
	CountPE(ops int64)
	CountInstr()
	// Metrics returns the accumulated cost; ResetMetrics zeroes it.
	Metrics() Metrics
	ResetMetrics()
}

// Machine satisfies Fabric.
var _ Fabric = (*Machine)(nil)
