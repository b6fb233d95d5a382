package virt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ppamcp/internal/ppa"
)

// packedParityCase is one cell of the sweep grid.
type packedParityCase struct {
	n, m    int
	h       uint
	workers int
}

func packedParityGrid() []packedParityCase {
	var grid []packedParityCase
	for _, nm := range []struct{ n, m int }{{4, 2}, {8, 2}, {12, 3}, {64, 8}} {
		for _, h := range []uint{4, 8, 16} {
			for _, w := range []int{1, 2, 7} {
				grid = append(grid, packedParityCase{nm.n, nm.m, h, w})
			}
		}
	}
	return grid
}

func newParityMachine(t *testing.T, c packedParityCase) *Machine {
	t.Helper()
	var opts []ppa.Option
	if c.workers > 1 {
		// Force the pooled path so the per-ring kernels actually run on
		// the persistent workers regardless of transaction size or host.
		opts = append(opts, ppa.WithWorkers(c.workers), ppa.WithForceParallel())
	}
	vm, err := New(c.n, c.m, c.h, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestPackedLaneParity is the packed engine's central property: the
// packed transactions (BroadcastBits/WiredOrBits/GlobalOrBits) and the
// lane-at-a-time oracle (laneMachine's Broadcast/WiredOr/GlobalOr) produce
// equal outputs, byte-identical ppa.Metrics AND identical physical
// observer event streams on two identically-driven machines — across
// block geometries (covering both the word-mask fast kernels and the
// generic ones), word widths, worker counts, all four directions, and
// injected physical switch faults.
func TestPackedLaneParity(t *testing.T) {
	for _, c := range packedParityGrid() {
		c := c
		t.Run(fmt.Sprintf("n=%d/m=%d/h=%d/w=%d", c.n, c.m, c.h, c.workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.n)*1000 + int64(c.h)*10 + int64(c.workers)))
			lane := newLaneMachine(newParityMachine(t, c))
			packed := newParityMachine(t, c)
			defer lane.Close()
			defer packed.Close()
			var laneEvents, packedEvents []ppa.Event
			lane.Physical().SetObserver(func(e ppa.Event) { laneEvents = append(laneEvents, e) })
			packed.Physical().SetObserver(func(e ppa.Event) { packedEvents = append(packedEvents, e) })
			size := c.n * c.n
			openBits := ppa.NewBitset(size)
			driveBits := ppa.NewBitset(size)
			predBits := ppa.NewBitset(size)
			dstBits := ppa.NewBitset(size)
			dstBools := make([]bool, size)
			for trial := 0; trial < 8; trial++ {
				// Half the trials run with random physical switch faults
				// injected identically on both machines: faults apply at
				// the physical transaction level, so packed-vs-lane
				// parity must survive them.
				if trial%2 == 1 {
					pe := rng.Intn(c.m * c.m)
					kind := ppa.FaultKind(rng.Intn(2))
					lane.Physical().InjectFault(pe, kind)
					packed.Physical().InjectFault(pe, kind)
				} else {
					lane.Physical().ClearFaults()
					packed.Physical().ClearFaults()
				}
				open, drive, src := randomConfig(rng, c.n, c.h)
				openBits.FromBools(open)
				driveBits.FromBools(drive)
				for _, d := range []ppa.Direction{ppa.East, ppa.West, ppa.South, ppa.North} {
					// Broadcast: prefill both destinations so floating
					// rings (left unwritten) are compared too.
					dstL := make([]ppa.Word, size)
					dstP := make([]ppa.Word, size)
					for i := range dstL {
						dstL[i] = ppa.Word(i % 5)
						dstP[i] = ppa.Word(i % 5)
					}
					lane.Broadcast(d, open, src, dstL)
					packed.BroadcastBits(d, openBits, src, dstP)
					if !reflect.DeepEqual(dstL, dstP) {
						t.Fatalf("trial %d d=%v: Broadcast outputs diverged", trial, d)
					}

					lane.WiredOr(d, open, drive, dstBools)
					packed.WiredOrBits(d, openBits, driveBits, dstBits)
					for i := 0; i < size; i++ {
						if dstBools[i] != dstBits.Get(i) {
							t.Fatalf("trial %d d=%v: WiredOr diverged at lane %d", trial, d, i)
						}
					}
				}
				pred := make([]bool, size)
				for i := range pred {
					pred[i] = rng.Intn(20) == 0
				}
				predBits.FromBools(pred)
				if lane.GlobalOr(pred) != packed.GlobalOrBits(predBits) {
					t.Fatalf("trial %d: GlobalOr diverged", trial)
				}
				if lm, pm := lane.Metrics(), packed.Metrics(); lm != pm {
					t.Fatalf("trial %d: metrics diverged\nlane:   %+v\npacked: %+v", trial, lm, pm)
				}
				if len(laneEvents) == 0 || !reflect.DeepEqual(laneEvents, packedEvents) {
					t.Fatalf("trial %d: physical event streams diverged (%d lane vs %d packed events)",
						trial, len(laneEvents), len(packedEvents))
				}
				laneEvents, packedEvents = laneEvents[:0], packedEvents[:0]
			}
		})
	}
}

// TestPackedShiftMatchesDirect covers the packed Shift against a direct
// n x n machine over the sweep geometries (the lane oracle has no Shift;
// the direct machine is its oracle) and pins its cost law.
func TestPackedShiftMatchesDirect(t *testing.T) {
	for _, c := range packedParityGrid() {
		c := c
		t.Run(fmt.Sprintf("n=%d/m=%d/h=%d/w=%d", c.n, c.m, c.h, c.workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.n) + int64(c.workers)))
			vm := newParityMachine(t, c)
			defer vm.Close()
			direct := ppa.New(c.n, c.h)
			_, _, src := randomConfig(rng, c.n, c.h)
			for _, d := range []ppa.Direction{ppa.East, ppa.West, ppa.South, ppa.North} {
				got := make([]ppa.Word, len(src))
				want := make([]ppa.Word, len(src))
				vm.ResetMetrics()
				vm.Shift(d, src, got)
				direct.Shift(d, src, want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("d=%v: Shift diverged from direct machine", d)
				}
				if steps := vm.Metrics().ShiftSteps; steps != int64(c.n/c.m) {
					t.Fatalf("d=%v: shift cost %d steps, want k=%d", d, steps, c.n/c.m)
				}
			}
		})
	}
}

// TestPackedAliasing drives the packed entry points with aliased
// operands — the usage the programming layer relies on (reduce into the
// drive plane, broadcast in place) — against the lane oracle on separate
// buffers.
func TestPackedAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, nm := range []struct{ n, m int }{{8, 2}, {12, 3}, {64, 8}} {
		n, m := nm.n, nm.m
		const h = 9
		vm, err := New(n, m, h)
		if err != nil {
			t.Fatal(err)
		}
		lv, err := New(n, m, h)
		if err != nil {
			t.Fatal(err)
		}
		lane := newLaneMachine(lv)
		size := n * n
		openBits := ppa.NewBitset(size)
		driveBits := ppa.NewBitset(size)
		want := make([]bool, size)
		for trial := 0; trial < 10; trial++ {
			d := ppa.Direction(rng.Intn(4))
			open, drive, src := randomConfig(rng, n, h)
			openBits.FromBools(open)

			// dst aliases src.
			inPlace := append([]ppa.Word(nil), src...)
			vm.BroadcastBits(d, openBits, inPlace, inPlace)
			ref := append([]ppa.Word(nil), src...)
			lane.Broadcast(d, open, src, ref)
			if !reflect.DeepEqual(inPlace, ref) {
				t.Fatalf("trial %d d=%v: aliased BroadcastBits diverged", trial, d)
			}

			// dst aliases drive.
			driveBits.FromBools(drive)
			vm.WiredOrBits(d, openBits, driveBits, driveBits)
			lane.WiredOr(d, open, drive, want)
			for i := 0; i < size; i++ {
				if want[i] != driveBits.Get(i) {
					t.Fatalf("trial %d d=%v: drive-aliased WiredOrBits diverged at %d", trial, d, i)
				}
			}

			// dst aliases open. ppa.Fabric does not promise this and no
			// caller relies on it, but the engine tolerates it; pinned so
			// a change that stops tolerating it is a deliberate one. Run
			// the lane oracle a second time too so the cumulative metrics
			// of both machines stay comparable.
			openBits.FromBools(open)
			driveBits.FromBools(drive)
			vm.WiredOrBits(d, openBits, driveBits, openBits)
			lane.WiredOr(d, open, drive, want)
			for i := 0; i < size; i++ {
				if want[i] != openBits.Get(i) {
					t.Fatalf("trial %d d=%v: open-aliased WiredOrBits diverged at %d", trial, d, i)
				}
			}

			if lm, pm := lane.Metrics(), vm.Metrics(); lm != pm {
				t.Fatalf("trial %d: metrics diverged under aliasing", trial)
			}
		}
	}
}
