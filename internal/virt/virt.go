// Package virt lifts the paper's one-matrix-element-per-PE assumption: a
// Machine presents an n x n *logical* PPA (the ppa.Fabric interface) while
// executing on an m x m *physical* ppa.Machine, with each physical PE
// owning a k x k block of logical PEs (k = n/m) in its local memory —
// the classic block-mapped virtualization of SIMD arrays.
//
// Every logical bus transaction decomposes into k physical passes (one
// per within-block plane), each costing one physical bus transaction plus
// O(k) local work per physical PE; a logical wired-OR additionally needs
// two one-bit physical shifts per plane to stitch clusters that span
// block boundaries. The resulting cost law — logical comm cycle ≈ k
// physical comm cycles — is the virtualization ablation measured in
// EXPERIMENTS.md.
//
// The within-block plane passes run as word-level bit scans and segment
// fills over the packed planes (see packed.go), optionally fanned over the
// physical machine's persistent ring worker pool, and every physical
// transaction takes its switch configuration packed. A lane-at-a-time
// implementation of the same decomposition is kept as a test oracle; the
// two produce bit-identical results, byte-identical ppa.Metrics and
// identical physical observer event streams (property-tested in
// packedparity_test.go).
//
// Results are bit-identical to running a real n x n machine
// (property-tested against ppa.Machine on random inputs).
package virt

import (
	"fmt"

	"ppamcp/internal/ppa"
)

// Machine is an n x n logical fabric simulated on an m x m physical PPA.
type Machine struct {
	phys *ppa.Machine
	n    int // logical side
	m    int // physical side
	k    int // block side, n/m

	// Per-physical-PE staging for the packed plane passes (m*m entries
	// each). The scan kernels write the []bool / []Word forms — distinct
	// bytes and words, so pooled per-ring workers never share a written
	// location — and the serial stitch phase packs pOpenB into pOpen for
	// the physical transactions. pDrive and pOr are written only serially
	// or by the physical wired-OR itself, so they are packed throughout.
	pOpenB             []bool      // block has an Open lane on this plane
	pOpen              *ppa.Bitset // pOpenB packed; GlobalOrBits' predicate
	tailB, fullB       []bool      // wired-OR drive decomposition
	pDrive, pOr        *ppa.Bitset // physical drive / wired-OR result
	pInject, pRecv     []ppa.Word  // broadcast injection/carry values
	headW              []ppa.Word  // head-cluster drive, as 0/1 words
	shiftHead, shiftOr []ppa.Word  // one-bit stitch shift results
	orW                []ppa.Word  // physical wired-OR result as 0/1 words
	boundary, incoming []ppa.Word  // shift block-boundary staging

	// Transposed logical planes for vertical passes: a column's
	// within-block scans become contiguous-bit scans of the transposed
	// row (the same 64x64 tile transpose the plain machine uses).
	// openSnap holds the open plane tOpen was last computed from:
	// vertical passes with an unchanged switch configuration (every
	// plane of a fused reduction, the fixed row/diagonal selectors of
	// the solver loop) skip the re-transpose on a word-compare hit.
	tOpen, tDrive, tDst *ppa.Bitset
	openSnap            *ppa.Bitset

	// Staged parameters of the current packed plane pass, read by the
	// ring kernels below (possibly from pooled workers; the pool's
	// wake/done barrier orders these writes before the workers' reads).
	jt            int  // within-block plane index
	jRev          bool // decreasing-bit flow order (West/North)
	jVert         bool // vertical pass (kernels scan transposed planes)
	jSrc, jDst    []ppa.Word
	jScan         *ppa.Bitset // open plane in scan orientation
	jDrive, jWDst *ppa.Bitset // wired-OR planes in scan orientation

	// Persistent ring-kernel bodies (method values, created once so a
	// pooled dispatch never allocates a closure).
	fnBcastScan, fnBcastFill    func(int)
	fnWorScan, fnWorFill        func(int)
	fnShiftCollect, fnShiftMove func(int)

	// rowsAligned: n is a multiple of 64, so every logical row (and every
	// transposed-column row) of a packed plane starts on a word boundary
	// and pooled fill kernels for distinct rings never write the same
	// word. Packed bitset fills fall back to serial execution otherwise.
	rowsAligned bool
	// wordBlocks additionally requires 64%k == 0: blocks then nest
	// exactly in host words and the scan/fill kernels run on register
	// masks instead of per-block Bitset range calls (see packed.go).
	wordBlocks bool
}

// Machine implements the logical fabric contract.
var _ ppa.Fabric = (*Machine)(nil)

// New returns an n x n logical machine with h-bit words backed by an
// m x m physical machine. n must be a positive multiple of m.
func New(n, m int, h uint, opts ...ppa.Option) (*Machine, error) {
	if m < 1 || n < m || n%m != 0 {
		return nil, fmt.Errorf("virt: logical side %d must be a positive multiple of physical side %d", n, m)
	}
	v := &Machine{phys: ppa.New(m, h, opts...), n: n, m: m, k: n / m}
	mm := m * m
	v.pOpenB = make([]bool, mm)
	v.pOpen = ppa.NewBitset(mm)
	v.tailB = make([]bool, mm)
	v.fullB = make([]bool, mm)
	v.pDrive = ppa.NewBitset(mm)
	v.pOr = ppa.NewBitset(mm)
	v.pInject = make([]ppa.Word, mm)
	v.pRecv = make([]ppa.Word, mm)
	v.headW = make([]ppa.Word, mm)
	v.shiftHead = make([]ppa.Word, mm)
	v.shiftOr = make([]ppa.Word, mm)
	v.orW = make([]ppa.Word, mm)
	v.boundary = make([]ppa.Word, mm)
	v.incoming = make([]ppa.Word, mm)
	v.tOpen = ppa.NewBitset(n * n)
	v.tDrive = ppa.NewBitset(n * n)
	v.tDst = ppa.NewBitset(n * n)
	v.openSnap = ppa.NewBitset(n * n)
	v.fnBcastScan = v.bcastScanRing
	v.fnBcastFill = v.bcastFillRing
	v.fnWorScan = v.worScanRing
	v.fnWorFill = v.worFillRing
	v.fnShiftCollect = v.shiftCollectRing
	v.fnShiftMove = v.shiftMoveRing
	v.rowsAligned = n&63 == 0
	v.wordBlocks = v.rowsAligned && 64%v.k == 0
	return v, nil
}

// N returns the logical side.
func (v *Machine) N() int { return v.n }

// PhysicalSide returns the physical side m.
func (v *Machine) PhysicalSide() int { return v.m }

// BlockSide returns k = n/m, the number of logical PEs per physical PE
// along one axis.
func (v *Machine) BlockSide() int { return v.k }

// Physical returns the underlying m x m machine — the handle for fault
// injection and observer attachment in virtualization studies.
func (v *Machine) Physical() *ppa.Machine { return v.phys }

// Bits returns the word width h.
func (v *Machine) Bits() uint { return v.phys.Bits() }

// Inf returns the MAXINT sentinel.
func (v *Machine) Inf() ppa.Word { return v.phys.Inf() }

// Metrics returns the *physical* machine's accumulated cost: this is the
// whole point of the virtualization ablation.
func (v *Machine) Metrics() ppa.Metrics { return v.phys.Metrics() }

// ResetMetrics zeroes the physical counters.
func (v *Machine) ResetMetrics() { v.phys.ResetMetrics() }

// Faulty reports whether the physical machine has injected switch faults.
// The programming layer keeps its interpretive reference kernels for
// faulty fabrics (the fault model is defined by the reference ring walk).
func (v *Machine) Faulty() bool { return v.phys.Faulty() }

// Close stops the physical machine's persistent ring workers (see
// ppa.Machine.Close); the virtual machine stays usable, serially.
func (v *Machine) Close() { v.phys.Close() }

// CountPE forwards local-operation charges to the physical machine.
func (v *Machine) CountPE(ops int64) { v.phys.CountPE(ops) }

// CountInstr forwards an instruction charge to the physical machine.
func (v *Machine) CountInstr() { v.phys.CountInstr() }

func (v *Machine) checkLen(name string, got int) {
	if got != v.n*v.n {
		panic(fmt.Sprintf("virt: %s has length %d, want %d", name, got, v.n*v.n))
	}
}

func (v *Machine) checkBits(name string, b *ppa.Bitset) {
	if b.Len() != v.n*v.n {
		panic(fmt.Sprintf("virt: %s has length %d, want %d", name, b.Len(), v.n*v.n))
	}
}

// chargeLocal charges steps SIMD instructions each executed by all
// physical PEs (the per-plane local scans).
func (v *Machine) chargeLocal(steps int) {
	for i := 0; i < steps; i++ {
		v.phys.CountInstr()
		v.phys.CountPE(int64(v.m * v.m))
	}
}
