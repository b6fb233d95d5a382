package ppa

import (
	"fmt"
)

// Machine is an n x n Polymorphic Processor Array. It owns no PE state:
// parallel variables live in the layers above (package par) as flat
// row-major slices of length n*n, and the Machine provides the
// communication fabric that moves them around, charging every transaction
// to its Metrics.
//
// Boolean lane sets (switch configurations, wired-OR planes, predicates)
// travel as packed Bitsets — 64 lanes per machine word — so one bus
// transaction costs O(n²/64) host word operations on its logical parts.
//
// A Machine is not safe for concurrent use by multiple goroutines; it *may*
// internally fan independent ring operations out over a persistent worker
// pool (see WithWorkers), which never changes results. The pool's
// goroutines are reclaimed by Close, or by a finalizer when the machine is
// dropped without it.
type Machine struct {
	n       int
	h       uint
	workers int
	metrics Metrics

	faults   map[int]FaultKind
	observer func(Event)

	// rings precomputes the geometry of every (direction, ring) pair —
	// it depends only on n, so the per-transaction inner loops never
	// re-derive it.
	rings [4][]ring
	// ringAlign is the smallest ring-count granule at which consecutive
	// horizontal rings start on a 64-bit word boundary of a packed lane
	// set (64/gcd(n,64)); parallel workers split packed ring walks only
	// at such boundaries so they never write the same word.
	ringAlign int

	// rk holds the ring kernel bodies and the persistent worker pool.
	// It deliberately does not point back at the Machine (see pool.go).
	rk *ringKernels
	// spawnWorkers is min(workers, n) — the fan-out a parallel dispatch
	// would use; forcePar makes every transaction take the pooled path.
	spawnWorkers int
	forcePar     bool

	// Cached scratch for the packed kernels (lazily allocated, reused
	// across transactions; a Machine is single-transaction at a time).
	faultBits           *Bitset // post-fault switch configuration
	tOpen, tDrive, tDst *Bitset // transposed planes for N/S wired-OR
	bcastT              *Bitset // transposed open for N/S broadcasts
}

// Option configures a Machine.
type Option func(*Machine)

// WithWorkers sets the number of persistent pool goroutines available to
// execute independent ring operations. The default (1) runs everything on
// the calling goroutine; with w > 1 a transaction is fanned out when the
// host has spare cores and the transaction is large enough to amortize
// the pool barrier. Results are identical for any worker count.
func WithWorkers(w int) Option {
	return func(m *Machine) {
		if w < 1 {
			w = 1
		}
		m.workers = w
	}
}

// WithForceParallel makes every ring transaction take the pooled parallel
// path regardless of transaction size or host core count. Results are
// unchanged; this is a correctness hook so tests (and the race detector)
// can exercise the worker pool on any machine shape and any host.
func WithForceParallel() Option {
	return func(m *Machine) { m.forcePar = true }
}

// New returns an n x n machine with h-bit words. It panics if n < 1 or h
// is outside [1, MaxBits]; these are static configuration errors.
func New(n int, h uint, opts ...Option) *Machine {
	if n < 1 {
		panic(fmt.Sprintf("ppa: machine side %d < 1", n))
	}
	if h == 0 || h > MaxBits {
		panic(fmt.Sprintf("ppa: word width %d out of range [1,%d]", h, MaxBits))
	}
	m := &Machine{n: n, h: h, workers: 1}
	for d := range m.rings {
		m.rings[d] = make([]ring, n)
		for i := 0; i < n; i++ {
			m.rings[d][i] = ringGeometry(Direction(d), i, n)
		}
	}
	m.ringAlign = 64 / gcd(n, 64)
	for _, o := range opts {
		o(m)
	}
	m.spawnWorkers = m.workers
	if m.spawnWorkers > n {
		m.spawnWorkers = n
	}
	m.rk = &ringKernels{n: n, rings: m.rings}
	if m.spawnWorkers > 1 {
		m.rk.chunks1 = ringChunks(n, m.spawnWorkers, 1)
		m.rk.chunksA = ringChunks(n, m.spawnWorkers, m.ringAlign)
	}
	return m
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// N returns the side of the array; the machine has N*N PEs.
func (m *Machine) N() int { return m.n }

// Size returns the total number of PEs, N*N.
func (m *Machine) Size() int { return m.n * m.n }

// Bits returns the word width h.
func (m *Machine) Bits() uint { return m.h }

// Inf returns this machine's MAXINT sentinel, Infinity(Bits()).
func (m *Machine) Inf() Word { return Infinity(m.h) }

// Index maps (row, col) to the flat row-major PE index.
func (m *Machine) Index(row, col int) int { return row*m.n + col }

// RowCol maps a flat PE index back to (row, col).
func (m *Machine) RowCol(i int) (row, col int) { return i / m.n, i % m.n }

// Metrics returns the costs accumulated so far.
func (m *Machine) Metrics() Metrics { return m.metrics }

// ResetMetrics zeroes the accumulated costs.
func (m *Machine) ResetMetrics() { m.metrics = Metrics{} }

// CountPE charges ops local ALU operations (summed over active PEs).
// It is exported for the programming layers above the raw fabric.
func (m *Machine) CountPE(ops int64) { m.metrics.PEOps += ops }

// CountInstr charges one SIMD instruction issued by the controller.
func (m *Machine) CountInstr() { m.metrics.Instructions++ }

// Charge adds a precomputed cost to the accumulated metrics without
// issuing any transaction: no data moves and no observer event is raised.
// It is for host drivers that compute a whole program's effect directly
// and know its cost in closed form (core's fused DP lane); such drivers
// must leave observed machines (Observed) to the real instruction stream.
func (m *Machine) Charge(c Metrics) { m.metrics = m.metrics.Add(c) }

// ring describes the geometry of one bus ring in flow order: the PE at
// flow position k has flat index base + k*stride (indices are exact; no
// modular arithmetic is applied because 0 <= k < n).
type ring struct {
	base, stride int
}

// ringGeometry derives the i-th ring of direction d on an n-sided array.
// East/West rings are rows; North/South rings are columns. Flow order
// follows the data movement direction.
func ringGeometry(d Direction, i, n int) ring {
	switch d {
	case East:
		return ring{base: i * n, stride: 1}
	case West:
		return ring{base: i*n + n - 1, stride: -1}
	case South:
		return ring{base: i, stride: n}
	case North:
		return ring{base: i + (n-1)*n, stride: -n}
	}
	panic(fmt.Sprintf("ppa: invalid direction %d", d))
}

// scratch returns (allocating on first use) a cached n*n-lane Bitset.
func (m *Machine) scratch(p **Bitset) *Bitset {
	if *p == nil {
		*p = NewBitset(m.n * m.n)
	}
	return *p
}

func (m *Machine) checkLen(name string, got int) {
	if got != m.n*m.n {
		panic(fmt.Sprintf("ppa: %s has length %d, want %d", name, got, m.n*m.n))
	}
}

func (m *Machine) checkBits(name string, b *Bitset) {
	if b.Len() != m.n*m.n {
		panic(fmt.Sprintf("ppa: %s has length %d, want %d", name, b.Len(), m.n*m.n))
	}
}

// BroadcastBits performs one segmented-bus transaction (semantics and
// aliasing as Fabric.BroadcastBits). Cost: one bus cycle.
func (m *Machine) BroadcastBits(d Direction, open *Bitset, src, dst []Word) {
	m.checkBits("open", open)
	m.checkLen("src", len(src))
	m.checkLen("dst", len(dst))
	open = m.effectiveOpenBits(open)
	m.observeOpens(OpBroadcast, d, open)
	m.metrics.BusCycles++
	rk := m.rk
	rk.kind, rk.dir = jobBroadcast, d
	rk.open, rk.src, rk.dst = open, src, dst
	if !d.Horizontal() {
		// Stage a transposed switch plane so each column's head scans are
		// contiguous-bit scans (see ringKernels.broadcastRing).
		t := m.scratch(&m.bcastT)
		TransposeBits(t, open, m.n)
		rk.topen = t
	}
	m.dispatch(false, m.n*m.n)
}

// WiredOrBits performs one wired-OR transaction (semantics and aliasing
// as Fabric.WiredOrBits). Horizontal (stride-1) rings reduce in place
// with word OR and trailing-zero scans; vertical rings run the same
// kernel through a cached bit-matrix transpose. Cost: one wired-OR cycle.
func (m *Machine) WiredOrBits(d Direction, open, drive, dst *Bitset) {
	m.checkBits("open", open)
	m.checkBits("drive", drive)
	m.checkBits("dst", dst)
	open = m.effectiveOpenBits(open)
	m.observeOpens(OpWiredOr, d, open)
	m.metrics.WiredOrCycles++
	if d.Horizontal() {
		m.wiredOrRows(open, drive, dst, d == West)
		return
	}
	// South rings read top-to-bottom: in the transposed matrix that is
	// the East kernel; North maps to West.
	to, td, tz := m.scratch(&m.tOpen), m.scratch(&m.tDrive), m.scratch(&m.tDst)
	TransposeBits(to, open, m.n)
	TransposeBits(td, drive, m.n)
	m.wiredOrRows(to, td, tz, d == North)
	TransposeBits(dst, tz, m.n)
}

// wiredOrRows resolves every row ring of a packed wired-OR plane (see
// ringKernels.wiredOrRow for the per-ring kernel).
func (m *Machine) wiredOrRows(open, drive, dst *Bitset, rev bool) {
	rk := m.rk
	rk.kind, rk.rev = jobWiredOr, rev
	rk.wOpen, rk.wDrv, rk.wDst = open, drive, dst
	// Three packed planes are touched, ~size/64 words each.
	m.dispatch(true, 3*(m.n*m.n/64+1))
}

// Shift moves every word one PE in direction d (semantics and aliasing as
// Fabric.Shift). Cost: one shift step.
func (m *Machine) Shift(d Direction, src, dst []Word) {
	m.checkLen("src", len(src))
	m.checkLen("dst", len(dst))
	m.observe(OpShift, d, 0)
	m.metrics.ShiftSteps++
	rk := m.rk
	rk.kind, rk.dir = jobShift, d
	rk.src, rk.dst = src, dst
	m.dispatch(false, m.n*m.n)
}

// GlobalOrBits evaluates the global-OR line: it reports whether pred is
// set at any PE. Cost: one global-OR operation.
func (m *Machine) GlobalOrBits(pred *Bitset) bool {
	m.checkBits("pred", pred)
	m.observe(OpGlobalOr, North, 0)
	m.metrics.GlobalOrOps++
	return pred.Any()
}
