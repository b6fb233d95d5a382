package virt

import (
	"math/rand"
	"reflect"
	"testing"

	"ppamcp/internal/ppa"
)

func TestNewValidation(t *testing.T) {
	for _, c := range []struct{ n, m int }{{0, 1}, {4, 0}, {4, 3}, {2, 4}, {6, 4}} {
		if _, err := New(c.n, c.m, 8); err == nil {
			t.Errorf("New(%d, %d) accepted", c.n, c.m)
		}
	}
	v, err := New(12, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 12 || v.PhysicalSide() != 3 || v.BlockSide() != 4 ||
		v.Bits() != 9 || v.Inf() != 511 {
		t.Errorf("accessors: n=%d m=%d k=%d h=%d", v.N(), v.PhysicalSide(), v.BlockSide(), v.Bits())
	}
}

// randomConfig builds matched random inputs for an n x n array.
func randomConfig(rng *rand.Rand, n int, h uint) (open, drive []bool, src []ppa.Word) {
	open = make([]bool, n*n)
	drive = make([]bool, n*n)
	src = make([]ppa.Word, n*n)
	for i := range open {
		open[i] = rng.Intn(4) == 0
		drive[i] = rng.Intn(3) == 0
		src[i] = ppa.Word(rng.Int63n(int64(ppa.Infinity(h)) + 1))
	}
	return
}

// TestOpsMatchDirectMachine is the package's central property: every
// logical operation on the virtualized machine produces bit-identical
// results to a direct n x n ppa.Machine, for every direction, block
// factor and random configuration.
func TestOpsMatchDirectMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const h = 10
	for trial := 0; trial < 120; trial++ {
		m := 1 + rng.Intn(4)
		k := 1 + rng.Intn(4)
		n := m * k
		d := ppa.Direction(rng.Intn(4))
		open, drive, src := randomConfig(rng, n, h)

		openBits, driveBits := ppa.NewBitsetFromBools(open), ppa.NewBitsetFromBools(drive)
		direct := ppa.New(n, h)
		vm, err := New(n, m, h)
		if err != nil {
			t.Fatal(err)
		}

		// Broadcast (fresh dst prefilled to catch floating-lane handling).
		dstD := make([]ppa.Word, n*n)
		dstV := make([]ppa.Word, n*n)
		for i := range dstD {
			dstD[i] = ppa.Word(i % 7)
			dstV[i] = ppa.Word(i % 7)
		}
		direct.BroadcastBits(d, openBits, src, dstD)
		vm.BroadcastBits(d, openBits, src, dstV)
		if !reflect.DeepEqual(dstD, dstV) {
			t.Fatalf("trial %d (n=%d m=%d d=%v): Broadcast diverged\nopen=%v\nsrc=%v\ndirect=%v\nvirt=%v",
				trial, n, m, d, open, src, dstD, dstV)
		}

		// WiredOr.
		orD := ppa.NewBitset(n * n)
		orV := ppa.NewBitset(n * n)
		direct.WiredOrBits(d, openBits, driveBits, orD)
		vm.WiredOrBits(d, openBits, driveBits, orV)
		if !reflect.DeepEqual(orD.Bools(), orV.Bools()) {
			t.Fatalf("trial %d (n=%d m=%d d=%v): WiredOr diverged\nopen=%v\ndrive=%v\ndirect=%v\nvirt=%v",
				trial, n, m, d, open, drive, orD.Bools(), orV.Bools())
		}

		// Shift.
		shD := make([]ppa.Word, n*n)
		shV := make([]ppa.Word, n*n)
		direct.Shift(d, src, shD)
		vm.Shift(d, src, shV)
		if !reflect.DeepEqual(shD, shV) {
			t.Fatalf("trial %d (n=%d m=%d d=%v): Shift diverged", trial, n, m, d)
		}

		// GlobalOr.
		if direct.GlobalOrBits(driveBits) != vm.GlobalOrBits(driveBits) {
			t.Fatalf("trial %d: GlobalOr diverged", trial)
		}
	}
}

func TestOpsInPlaceAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, m, h = 6, 2, 8
	for trial := 0; trial < 40; trial++ {
		d := ppa.Direction(rng.Intn(4))
		open, _, src := randomConfig(rng, n, h)
		openBits := ppa.NewBitsetFromBools(open)

		want := make([]ppa.Word, n*n)
		copy(want, src)
		ppa.New(n, h).BroadcastBits(d, openBits, want, want)

		vm, _ := New(n, m, h)
		got := append([]ppa.Word(nil), src...)
		vm.BroadcastBits(d, openBits, got, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d d=%v: aliased Broadcast diverged", trial, d)
		}

		wantS := append([]ppa.Word(nil), src...)
		ppa.New(n, h).Shift(d, wantS, wantS)
		gotS := append([]ppa.Word(nil), src...)
		vm.Shift(d, gotS, gotS)
		if !reflect.DeepEqual(gotS, wantS) {
			t.Fatalf("trial %d d=%v: aliased Shift diverged", trial, d)
		}
	}
}

// TestVirtualizationCostLaw pins the ablation's cost model: one logical
// broadcast costs exactly k physical bus cycles, one logical wired-OR
// k physical wired-OR cycles plus 2k shift steps, one logical shift k
// physical steps.
func TestVirtualizationCostLaw(t *testing.T) {
	for _, c := range []struct{ n, m int }{{8, 8}, {8, 4}, {8, 2}, {8, 1}, {12, 3}} {
		k := c.n / c.m
		vm, err := New(c.n, c.m, 8)
		if err != nil {
			t.Fatal(err)
		}
		size := c.n * c.n
		open := ppa.NewBitset(size)
		open.Set(0)
		src := make([]ppa.Word, size)
		drive := ppa.NewBitset(size)

		vm.BroadcastBits(ppa.East, open, src, src)
		got := vm.Metrics()
		if got.BusCycles != int64(k) {
			t.Errorf("n=%d m=%d: Broadcast cost %d bus cycles, want k=%d", c.n, c.m, got.BusCycles, k)
		}
		vm.ResetMetrics()
		vm.WiredOrBits(ppa.South, open, drive, drive)
		got = vm.Metrics()
		if got.WiredOrCycles != int64(k) || got.ShiftSteps != int64(2*k) {
			t.Errorf("n=%d m=%d: WiredOr cost %d/%d, want %d wired-OR + %d shifts",
				c.n, c.m, got.WiredOrCycles, got.ShiftSteps, k, 2*k)
		}
		vm.ResetMetrics()
		vm.Shift(ppa.West, src, src)
		if got = vm.Metrics(); got.ShiftSteps != int64(k) {
			t.Errorf("n=%d m=%d: Shift cost %d steps, want k=%d", c.n, c.m, got.ShiftSteps, k)
		}
		vm.ResetMetrics()
		vm.GlobalOrBits(drive)
		if got = vm.Metrics(); got.GlobalOrOps != 1 {
			t.Errorf("GlobalOr ops = %d", got.GlobalOrOps)
		}
	}
}

func TestTrivialVirtualizationMatchesDirectCosts(t *testing.T) {
	// k = 1 must behave exactly like the direct machine, cycle for cycle.
	vm, _ := New(5, 5, 8)
	direct := ppa.New(5, 8)
	open := ppa.NewBitset(25)
	open.Set(3)
	src := make([]ppa.Word, 25)
	vm.BroadcastBits(ppa.North, open, src, src)
	direct.BroadcastBits(ppa.North, open, src, src)
	if vm.Metrics().BusCycles != direct.Metrics().BusCycles {
		t.Errorf("k=1 bus cycles: virt %d, direct %d",
			vm.Metrics().BusCycles, direct.Metrics().BusCycles)
	}
}

func TestLengthValidationPanics(t *testing.T) {
	vm, _ := New(4, 2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("short slice did not panic")
		}
	}()
	vm.BroadcastBits(ppa.East, ppa.NewBitset(4), make([]ppa.Word, 16), make([]ppa.Word, 16))
}

// TestVirtNewAllocs pins construction cost: New allocates the physical
// machine and its fixed per-machine scratch, nothing that grows with the
// logical lane count (no per-lane index tables).
func TestVirtNewAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		v, err := New(64, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		v.Close()
	})
	if allocs > 64 {
		t.Errorf("New(64, 8, 16) made %.0f allocations, want <= 64", allocs)
	}
}
