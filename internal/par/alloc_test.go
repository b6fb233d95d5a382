package par

import (
	"testing"

	"ppamcp/internal/ppa"
	"ppamcp/internal/virt"
)

// TestMinSteadyStateAllocs pins the pooling of the bit-serial minimum's
// h-plane loop: with warm pools, one Min issues h wired-OR cycles and two
// broadcasts without allocating at all — no per-plane temporaries (bit
// plane, drive, cluster OR, withdraw condition), no staging variables, and
// no per-transaction closures in the machine's ring dispatcher (job
// parameters travel through the staged-job fields of the persistent worker
// pool instead). The sweep covers the serial and the forced-parallel
// pooled path; the tiny headroom only absorbs runtime noise, so a lost
// Release or a reintroduced dispatch closure trips it immediately.
func TestMinSteadyStateAllocs(t *testing.T) {
	const maxAllocs = 2
	for _, workers := range []int{1, 4} {
		var opts []ppa.Option
		if workers > 1 {
			opts = append(opts, ppa.WithWorkers(workers), ppa.WithForceParallel())
		}
		m := ppa.New(64, 10, opts...)
		a := New(m)
		src := a.Row()
		head := a.Col().EqConst(63)
		a.Min(src, ppa.West, head).Release() // warm-up fills the pools
		allocs := testing.AllocsPerRun(5, func() {
			a.Min(src, ppa.West, head).Release()
		})
		if allocs > maxAllocs {
			t.Errorf("workers=%d: steady-state Min allocates %.0f objects, want <= %d",
				workers, allocs, maxAllocs)
		}
		m.Close()
	}
}

// TestVirtMinSteadyStateAllocs extends the zero-alloc pin to block-mapped
// execution: the packed virtualization engine stages every plane pass in
// scratch owned by the virt.Machine (sized at construction), so a warm
// Min on a virtualized fabric — serial or pooled — allocates nothing per
// transaction either.
func TestVirtMinSteadyStateAllocs(t *testing.T) {
	const maxAllocs = 2
	for _, workers := range []int{1, 4} {
		var opts []ppa.Option
		if workers > 1 {
			opts = append(opts, ppa.WithWorkers(workers), ppa.WithForceParallel())
		}
		vm, err := virt.New(64, 8, 10, opts...)
		if err != nil {
			t.Fatal(err)
		}
		a := New(vm)
		src := a.Row()
		head := a.Col().EqConst(63)
		a.Min(src, ppa.West, head).Release() // warm-up fills the pools
		allocs := testing.AllocsPerRun(5, func() {
			a.Min(src, ppa.West, head).Release()
		})
		if allocs > maxAllocs {
			t.Errorf("workers=%d: steady-state virtualized Min allocates %.0f objects, want <= %d",
				workers, allocs, maxAllocs)
		}
		vm.Close()
	}
}
