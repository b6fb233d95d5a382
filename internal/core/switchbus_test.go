package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ppamcp/internal/graph"
)

// TestSwitchOnlyBusMatchesWiredOr: the two bus models are an
// implementation detail — Dist, Next and Iterations are identical.
func TestSwitchOnlyBusMatchesWiredOr(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(11)
		g := graph.GenRandom(n, 0.2+rng.Float64()*0.5, 1+int64(rng.Intn(12)), rng.Int63())
		dest := rng.Intn(n)
		wired := mustSolve(t, g, dest, Options{})
		switched := mustSolve(t, g, dest, Options{SwitchOnlyBus: true, Bits: wired.Bits})
		if !reflect.DeepEqual(wired.Dist, switched.Dist) ||
			!reflect.DeepEqual(wired.Next, switched.Next) ||
			wired.Iterations != switched.Iterations {
			t.Fatalf("trial %d: bus models diverged", trial)
		}
	}
}

// TestSwitchOnlyBusCostModel: no wired-OR cycles at all; bus cycles match
// the 2h+2-per-min analytical model.
func TestSwitchOnlyBusCostModel(t *testing.T) {
	for _, h := range []uint{8, 16} {
		g := graph.GenRandomConnected(10, 0.3, 9, int64(h))
		r := mustSolve(t, g, 4, Options{SwitchOnlyBus: true, Bits: h})
		if r.Metrics.WiredOrCycles != 0 {
			t.Errorf("h=%d: switch-only run used %d wired-OR cycles", h, r.Metrics.WiredOrCycles)
		}
		want := PredictedCost(10, 0, h, r.Iterations, false, false, true)
		if r.Metrics.BusCycles != want.BusCycles || r.Metrics.GlobalOrOps != want.GlobalOrOps {
			t.Errorf("h=%d: bus=%d globalOR=%d, model %d/%d",
				h, r.Metrics.BusCycles, r.Metrics.GlobalOrOps, want.BusCycles, want.GlobalOrOps)
		}
	}
}

// TestBusModelsBothThetaPH: both models scale linearly in h — the paper's
// complexity result does not depend on the wired-OR assumption.
func TestBusModelsBothThetaPH(t *testing.T) {
	g := graph.GenChain(8, 1)
	for _, switchOnly := range []bool{false, true} {
		r16 := mustSolve(t, g, 7, Options{Bits: 16, SwitchOnlyBus: switchOnly})
		r32 := mustSolve(t, g, 7, Options{Bits: 32, SwitchOnlyBus: switchOnly})
		var c16, c32 int64
		if switchOnly {
			c16, c32 = r16.Metrics.BusCycles, r32.Metrics.BusCycles
		} else {
			c16, c32 = r16.Metrics.WiredOrCycles, r32.Metrics.WiredOrCycles
		}
		// The h-dependent term must exactly double with h.
		perIter16 := c16 / int64(r16.Iterations)
		perIter32 := c32 / int64(r32.Iterations)
		growth := perIter32 - perIter16
		if switchOnly {
			// per-iter bus: 2*(2h+2)+5 -> growth 4*16 = 64.
			if growth != 64 {
				t.Errorf("switch-only growth = %d, want 64", growth)
			}
		} else if growth != 32 { // per-iter wired-OR: 2h -> growth 2*16.
			t.Errorf("wired-OR growth = %d, want 32", growth)
		}
	}
}
