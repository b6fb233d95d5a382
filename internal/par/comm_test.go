package par

import (
	"math/rand"
	"reflect"
	"testing"

	"ppamcp/internal/ppa"
)

func TestBroadcastExpression(t *testing.T) {
	a := ctx(4, 8)
	// Row 1 is Open; broadcasting South sends row 1 down every column.
	src := a.Zeros()
	a.Where(a.Row().EqConst(1), func() {
		// Store column-dependent data in row 1.
		src.Assign(a.Col().AddSatConst(10))
	})
	got := a.Broadcast(src, ppa.South, a.Row().EqConst(1))
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if got.At(r, c) != ppa.Word(10+c) {
				t.Errorf("bcast[%d,%d] = %d, want %d", r, c, got.At(r, c), 10+c)
			}
		}
	}
}

func TestBroadcastIntoKeepsFloatingLanesAndMask(t *testing.T) {
	a := ctx(3, 8)
	dst := a.Lit(5)
	src := a.Lit(9)
	// No Open PEs at all: the bus floats everywhere; dst unchanged.
	a.BroadcastInto(dst, src, ppa.East, a.False())
	for _, w := range dst.Slice() {
		if w != 5 {
			t.Fatalf("floating BroadcastInto changed dst: %v", dst.Slice())
		}
	}
	// Open col 0, but mask limits stores to row 0.
	a.Where(a.Row().EqConst(0), func() {
		a.BroadcastInto(dst, src, ppa.East, a.Col().EqConst(0))
	})
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := ppa.Word(5)
			if r == 0 {
				want = 9
			}
			if dst.At(r, c) != want {
				t.Errorf("dst[%d,%d] = %d, want %d", r, c, dst.At(r, c), want)
			}
		}
	}
}

func TestBroadcastBool(t *testing.T) {
	a := ctx(3, 8)
	src := a.False()
	a.Where(a.Col().EqConst(0).And(a.Row().EqConst(1)), func() {
		src.AssignConst(true)
	})
	got := a.BroadcastBool(src, ppa.East, a.Col().EqConst(0))
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if got.At(r, c) != (r == 1) {
				t.Errorf("bcastBool[%d,%d] = %v", r, c, got.At(r, c))
			}
		}
	}
}

func TestOrWiredReduction(t *testing.T) {
	a := ctx(4, 8)
	drive := a.False()
	a.Where(a.Row().EqConst(2).And(a.Col().EqConst(3)), func() {
		drive.AssignConst(true)
	})
	// Whole-row clusters headed at col 0, direction East.
	got := a.Or(drive, ppa.East, a.Col().EqConst(0))
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if got.At(r, c) != (r == 2) {
				t.Errorf("or[%d,%d] = %v", r, c, got.At(r, c))
			}
		}
	}
}

func TestShiftVarAndBool(t *testing.T) {
	a := ctx(3, 8)
	v := a.Col()
	e := a.Shift(v, ppa.East)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := ppa.Word((c + 2) % 3)
			if e.At(r, c) != want {
				t.Errorf("shift[%d,%d] = %d, want %d", r, c, e.At(r, c), want)
			}
		}
	}
	b := a.Col().EqConst(0)
	s := a.ShiftBool(b, ppa.East)
	for r := 0; r < 3; r++ {
		if !s.At(r, 1) || s.At(r, 0) || s.At(r, 2) {
			t.Errorf("shiftBool row %d wrong: %v %v %v", r, s.At(r, 0), s.At(r, 1), s.At(r, 2))
		}
	}
}

func TestAnyNone(t *testing.T) {
	a := ctx(3, 8)
	b := a.False()
	if a.Any(b) || !a.None(b) {
		t.Error("Any(all-false) wrong")
	}
	a.Where(a.Row().EqConst(2), func() { b.AssignConst(true) })
	if !a.Any(b) || a.None(b) {
		t.Error("Any(some-true) wrong")
	}
}

func TestMinWholeRow(t *testing.T) {
	a := ctx(4, 8)
	rows := [][]ppa.Word{
		{7, 3, 9, 5},
		{255, 255, 255, 255},
		{0, 1, 2, 3},
		{200, 100, 100, 201},
	}
	flat := make([]ppa.Word, 0, 16)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	src := a.FromSlice(flat)
	// The MCP configuration: whole-row clusters, head at col n-1, flow West.
	got := a.Min(src, ppa.West, a.Col().EqConst(3))
	wantMin := []ppa.Word{3, 255, 0, 100}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if got.At(r, c) != wantMin[r] {
				t.Errorf("min[%d,%d] = %d, want %d", r, c, got.At(r, c), wantMin[r])
			}
		}
	}
}

func TestMinPerColumn(t *testing.T) {
	a := ctx(3, 6)
	src := a.FromSlice([]ppa.Word{
		5, 1, 60,
		2, 9, 63,
		7, 4, 61,
	})
	got := a.Min(src, ppa.South, a.Row().EqConst(0))
	want := []ppa.Word{2, 1, 60}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if got.At(r, c) != want[c] {
				t.Errorf("colmin[%d,%d] = %d, want %d", r, c, got.At(r, c), want[c])
			}
		}
	}
}

func TestMinCycleCost(t *testing.T) {
	// The paper's Θ(h) claim, exactly: h wired-OR cycles and h+2 bus
	// cycles per Min, independent of n.
	for _, n := range []int{2, 8, 16} {
		for _, h := range []uint{4, 8, 13} {
			a := ctx(n, h)
			src := a.Zeros()
			head := a.Col().EqConst(ppa.Word(n - 1))
			before := a.Machine().Metrics()
			a.Min(src, ppa.West, head)
			d := a.Machine().Metrics().Sub(before)
			wiredOr, bus := MinCost(h)
			if d.WiredOrCycles != wiredOr || d.BusCycles != bus {
				t.Errorf("n=%d h=%d: wiredOR=%d bus=%d, want %d and %d",
					n, h, d.WiredOrCycles, d.BusCycles, wiredOr, bus)
			}
		}
	}
}

func TestMinMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(9)
		h := uint(4 + rng.Intn(10))
		a := ctx(n, h)
		flat := make([]ppa.Word, n*n)
		for i := range flat {
			flat[i] = ppa.Word(rng.Int63n(int64(ppa.Infinity(h)) + 1))
		}
		src := a.FromSlice(flat)
		got := a.Min(src, ppa.West, a.Col().EqConst(ppa.Word(n-1)))
		for r := 0; r < n; r++ {
			want := flat[r*n]
			for c := 1; c < n; c++ {
				if flat[r*n+c] < want {
					want = flat[r*n+c]
				}
			}
			for c := 0; c < n; c++ {
				if got.At(r, c) != want {
					t.Fatalf("trial %d n=%d h=%d row %d: min = %d, want %d (row %v)",
						trial, n, h, r, got.At(r, c), want, flat[r*n:r*n+n])
				}
			}
		}
	}
}

func TestSelectedMin(t *testing.T) {
	a := ctx(4, 8)
	src := a.Col() // minimize the column index
	sel := a.FromBools([]bool{
		false, true, false, true, // row 0: cols 1,3 selected -> 1
		false, false, false, true, // row 1: col 3 -> 3
		true, true, true, true, // row 2: all -> 0
		false, false, true, false, // row 3: col 2 -> 2
	})
	got := a.SelectedMin(src, ppa.West, a.Col().EqConst(3), sel)
	want := []ppa.Word{1, 3, 0, 2}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if got.At(r, c) != want[r] {
				t.Errorf("selmin[%d,%d] = %d, want %d", r, c, got.At(r, c), want[r])
			}
		}
	}
}

func TestSelectedMinEmptySelectionFloats(t *testing.T) {
	a := ctx(3, 8)
	src := a.FromSlice([]ppa.Word{
		11, 12, 13,
		21, 22, 23,
		31, 32, 33,
	})
	sel := a.False()
	// Rows with empty selection return the head's original value.
	got := a.SelectedMin(src, ppa.West, a.Col().EqConst(2), sel)
	want := []ppa.Word{13, 23, 33}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if got.At(r, c) != want[r] {
				t.Errorf("empty-sel[%d,%d] = %d, want %d", r, c, got.At(r, c), want[r])
			}
		}
	}
}

func TestSelectedMinDoesNotClobberSelection(t *testing.T) {
	a := ctx(2, 8)
	src := a.Col()
	sel := a.True()
	a.SelectedMin(src, ppa.West, a.Col().EqConst(1), sel)
	if sel.Count() != 4 {
		t.Error("SelectedMin mutated caller's selection variable")
	}
}

// randOpenPlane builds a switch plane stressing every cluster topology the
// reductions must handle: whole-ring clusters (the paper's MCP case, one
// Open PE per ring), multi-cluster rings (several heads), and floating
// rings (no head at all).
func randOpenPlane(rng *rand.Rand, n int) []bool {
	open := make([]bool, n*n)
	for r := 0; r < n; r++ {
		switch rng.Intn(3) {
		case 0: // single head: a whole-ring cluster
			open[r*n+rng.Intn(n)] = true
		case 1: // multi-cluster ring
			for c := 0; c < n; c++ {
				open[r*n+c] = rng.Intn(4) == 0
			}
		default: // floating ring (left all-Short)
		}
	}
	return open
}

// TestSelectedReductionsNeverMutateSelection pins the lazy-copy contract:
// SelectedMin, SelectedMax and SelectedMinViaSwitches must never write
// through the caller's selection mask, on random operands, switch planes
// and selections.
func TestSelectedReductionsNeverMutateSelection(t *testing.T) {
	const n, h = 8, 8
	rng := rand.New(rand.NewSource(99))
	a := New(ppa.New(n, h))
	flat := make([]ppa.Word, n*n)
	for i := range flat {
		flat[i] = ppa.Word(rng.Int63n(int64(ppa.Infinity(h)) + 1))
	}
	openB := randOpenPlane(rng, n)
	selB := make([]bool, n*n)
	for i := range selB {
		selB[i] = rng.Intn(2) == 0
	}
	src := a.FromSlice(flat)
	open := a.FromBools(openB)
	sel := a.FromBools(selB)
	a.SelectedMin(src, ppa.East, open, sel).Release()
	a.SelectedMax(src, ppa.West, open, sel).Release()
	a.SelectedMinViaSwitches(src, ppa.East, open, sel).Release()
	got := sel.Slice()
	for i := range selB {
		if got[i] != selB[i] {
			t.Fatalf("selection lane %d mutated: now %v, was %v", i, got[i], selB[i])
		}
	}
}

// TestMinMultiClusterHeadArtifact pins down the hardware-faithful artifact
// documented on Min: with several clusters per ring, a cluster whose unique
// minimum is its own head fetches its result from the neighbouring
// cluster's minima during the reverse broadcast (statement 12 of the
// paper's listing). The MCP algorithm never builds such configurations.
func TestMinMultiClusterHeadArtifact(t *testing.T) {
	a := ctx(4, 8)
	// One row ring, two clusters: heads at cols 0 and 2 (flow East).
	// Cluster A = {0,1} values {1, 9}; its minimum (1) sits at head 0.
	// Cluster B = {2,3} values {9, 5}; its minimum (5) sits at col 3.
	src := a.FromSlice([]ppa.Word{
		1, 9, 9, 5,
		0, 0, 0, 0,
		0, 0, 0, 0,
		0, 0, 0, 0,
	})
	heads := a.Col().EqConst(0).Or(a.Col().EqConst(2))
	got := a.Min(src, ppa.East, heads)
	// Cluster B behaves: min 5 everywhere in {2,3}.
	if got.At(0, 2) != 5 || got.At(0, 3) != 5 {
		t.Errorf("cluster B min = %d,%d, want 5,5", got.At(0, 2), got.At(0, 3))
	}
	// Cluster A exhibits the artifact: head 0's reverse broadcast fetches
	// cluster B's surviving minimum (5) instead of its own 1, because no
	// other PE of cluster A is still enabled to feed it.
	if got.At(0, 0) != 5 || got.At(0, 1) != 5 {
		t.Errorf("artifact changed: cluster A = %d,%d (expected the documented 5,5)",
			got.At(0, 0), got.At(0, 1))
	}
}

func TestMinCostHelper(t *testing.T) {
	w, b := MinCost(16)
	if w != 16 || b != 2 {
		t.Errorf("MinCost(16) = %d,%d, want 16,2", w, b)
	}
}

func BenchmarkMinRow(b *testing.B) {
	a := ctx(64, 16)
	rng := rand.New(rand.NewSource(1))
	flat := make([]ppa.Word, 64*64)
	for i := range flat {
		flat[i] = ppa.Word(rng.Intn(1 << 16))
	}
	src := a.FromSlice(flat)
	head := a.Col().EqConst(63)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Min(src, ppa.West, head)
	}
}

func wordsEqual(t *testing.T, got, want []ppa.Word) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
