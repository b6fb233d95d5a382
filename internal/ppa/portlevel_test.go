package ppa

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPortLevelBroadcastEquivalence: the behavioral cut-ring Broadcast
// and the electrical port-level model agree on EVERY configuration.
func TestPortLevelBroadcastEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		d := Direction(rng.Intn(4))
		m := New(n, 10)
		open := make([]bool, n*n)
		src := make([]Word, n*n)
		behavioral := make([]Word, n*n)
		portLevel := make([]Word, n*n)
		for i := range open {
			open[i] = rng.Intn(3) == 0
			src[i] = Word(rng.Intn(1 << 10))
			behavioral[i] = Word(rng.Intn(1 << 10))
			portLevel[i] = behavioral[i]
		}
		broadcastBools(m, d, open, src, behavioral)
		portLevelBroadcast(n, d, open, src, portLevel)
		if !reflect.DeepEqual(behavioral, portLevel) {
			t.Fatalf("trial %d n=%d d=%v: models diverged\nopen=%v\nsrc=%v\nbehav=%v\nport =%v",
				trial, n, d, open, src, behavioral, portLevel)
		}
	}
}

// TestPortLevelWiredOrEquivalence: the models agree on every lane except
// the Open PEs of rings hosting two or more clusters — the exact
// divergence set documented in the package comment. Single-head rings
// (the only configuration the paper's algorithms build) agree everywhere.
func TestPortLevelWiredOrEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		d := Direction(rng.Intn(4))
		m := New(n, 8)
		open := make([]bool, n*n)
		drive := make([]bool, n*n)
		behavioral := make([]bool, n*n)
		portLevel := make([]bool, n*n)
		for i := range open {
			open[i] = rng.Intn(3) == 0
			drive[i] = rng.Intn(2) == 0
		}
		wiredOrBools(m, d, open, drive, behavioral)
		portLevelWiredOr(n, d, open, drive, portLevel)

		// Count heads per ring to classify lanes.
		headsInRing := make([]int, n)
		for ring := 0; ring < n; ring++ {
			for k := 0; k < n; k++ {
				var p int
				if d.Horizontal() {
					p = ring*n + k
				} else {
					p = k*n + ring
				}
				if open[p] {
					headsInRing[ring]++
				}
			}
		}
		ringOf := func(p int) int {
			if d.Horizontal() {
				return p / n
			}
			return p % n
		}
		for p := 0; p < n*n; p++ {
			mayDiverge := open[p] && headsInRing[ringOf(p)] >= 2
			if behavioral[p] != portLevel[p] && !mayDiverge {
				t.Fatalf("trial %d n=%d d=%v: divergence outside the documented set at lane %d\nopen=%v\ndrive=%v\nbehav=%v\nport =%v",
					trial, n, d, p, open, drive, behavioral, portLevel)
			}
		}
	}
}

// TestPortLevelWiredOrSingleHeadExact: with at most one head per ring
// (the MCP configurations) the two models are identical everywhere.
func TestPortLevelWiredOrSingleHeadExact(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		d := Direction(rng.Intn(4))
		m := New(n, 8)
		open := make([]bool, n*n)
		drive := make([]bool, n*n)
		for ring := 0; ring < n; ring++ {
			if rng.Intn(4) != 0 { // some rings stay headless
				k := rng.Intn(n)
				if d.Horizontal() {
					open[ring*n+k] = true
				} else {
					open[k*n+ring] = true
				}
			}
		}
		for i := range drive {
			drive[i] = rng.Intn(2) == 0
		}
		behavioral := make([]bool, n*n)
		portLevel := make([]bool, n*n)
		wiredOrBools(m, d, open, drive, behavioral)
		portLevelWiredOr(n, d, open, drive, portLevel)
		if !reflect.DeepEqual(behavioral, portLevel) {
			t.Fatalf("trial %d: single-head configs diverged", trial)
		}
	}
}

// TestPortLevelWiredOrDivergenceExists pins that the documented
// divergence is real, not vacuous: a two-cluster ring where the clusters
// carry different ORs.
func TestPortLevelWiredOrDivergenceExists(t *testing.T) {
	const n = 4
	m := New(n, 8)
	open := make([]bool, n*n)
	drive := make([]bool, n*n)
	// Row 0, flow East: heads at 0 and 2; only cluster {2,3} drives.
	open[0], open[2] = true, true
	drive[3] = true
	behavioral := make([]bool, n*n)
	portLevel := make([]bool, n*n)
	wiredOrBools(m, East, open, drive, behavioral)
	portLevelWiredOr(n, East, open, drive, portLevel)
	// Behavioral: head 0 reads its own (silent) cluster -> false.
	// Port-level: head 0's read port hangs on cluster {2,3}'s wire -> true.
	if behavioral[0] != false || portLevel[0] != true {
		t.Errorf("head 0: behavioral %v (want false), port-level %v (want true)",
			behavioral[0], portLevel[0])
	}
	// Non-head lanes agree.
	for _, p := range []int{1, 3} {
		if behavioral[p] != portLevel[p] {
			t.Errorf("lane %d diverged unexpectedly", p)
		}
	}
}

func TestPortLevelPanicsOnBadLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	portLevelBroadcast(3, East, make([]bool, 4), make([]Word, 9), make([]Word, 9))
}
