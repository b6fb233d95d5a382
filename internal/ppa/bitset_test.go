package ppa

import (
	"math/rand"
	"testing"
)

func randBools(rng *rand.Rand, n int, p float64) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = rng.Float64() < p
	}
	return b
}

func TestBitsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 63, 64, 65, 100, 128, 4096} {
		data := randBools(rng, n, 0.4)
		b := NewBitsetFromBools(data)
		if b.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, b.Len())
		}
		got := b.Bools()
		for i := range data {
			if got[i] != data[i] || b.Get(i) != data[i] {
				t.Fatalf("n=%d lane %d: got %v want %v", n, i, got[i], data[i])
			}
		}
		// Tail invariant.
		if n&63 != 0 && len(b.Words()) > 0 {
			if b.Words()[len(b.Words())-1]&^b.tailMask() != 0 {
				t.Fatalf("n=%d: tail bits set", n)
			}
		}
	}
}

func TestBitsetKernelsMatchLaneLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		xb, yb := randBools(rng, n, 0.5), randBools(rng, n, 0.5)
		x, y := NewBitsetFromBools(xb), NewBitsetFromBools(yb)
		dst := NewBitset(n)

		check := func(name string, want func(a, b bool) bool) {
			got := dst.Bools()
			for i := 0; i < n; i++ {
				if got[i] != want(xb[i], yb[i]) {
					t.Fatalf("n=%d %s lane %d: got %v", n, name, i, got[i])
				}
			}
		}
		dst.And(x, y)
		check("and", func(a, b bool) bool { return a && b })
		dst.AndNot(x, y)
		check("andnot", func(a, b bool) bool { return a && !b })
		dst.Or(x, y)
		check("or", func(a, b bool) bool { return a || b })
		dst.Xor(x, y)
		check("xor", func(a, b bool) bool { return a != b })
		dst.Not(x)
		check("not", func(a, b bool) bool { return !a })

		count := 0
		for _, v := range xb {
			if v {
				count++
			}
		}
		if x.Count() != count {
			t.Fatalf("n=%d: Count=%d want %d", n, x.Count(), count)
		}
		if x.Any() != (count > 0) {
			t.Fatalf("n=%d: Any=%v", n, x.Any())
		}
	}
}

func TestBitsetRangeOpsMatchLaneLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(180)
		data := randBools(rng, n, 0.15)
		b := NewBitsetFromBools(data)
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)

		wantAny := false
		for i := lo; i < hi; i++ {
			wantAny = wantAny || data[i]
		}
		if b.AnyRange(lo, hi) != wantAny {
			t.Fatalf("n=%d [%d,%d): AnyRange=%v want %v", n, lo, hi, b.AnyRange(lo, hi), wantAny)
		}

		wantNext, wantPrev := -1, -1
		for i := lo; i < hi; i++ {
			if data[i] {
				if wantNext == -1 {
					wantNext = i
				}
				wantPrev = i
			}
		}
		if got := b.NextSet(lo, hi); got != wantNext {
			t.Fatalf("n=%d [%d,%d): NextSet=%d want %d", n, lo, hi, got, wantNext)
		}
		if got := b.PrevSet(lo, hi); got != wantPrev {
			t.Fatalf("n=%d [%d,%d): PrevSet=%d want %d", n, lo, hi, got, wantPrev)
		}

		v := rng.Intn(2) == 0
		b.FillRange(lo, hi, v)
		got := b.Bools()
		for i := 0; i < n; i++ {
			want := data[i]
			if i >= lo && i < hi {
				want = v
			}
			if got[i] != want {
				t.Fatalf("n=%d FillRange[%d,%d)=%v lane %d: got %v want %v", n, lo, hi, v, i, got[i], want)
			}
		}
	}
}

func TestTransposeBitsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 7, 8, 16, 33, 64, 65, 128} {
		data := randBools(rng, n*n, 0.3)
		src := NewBitsetFromBools(data)
		dst := NewBitset(n * n)
		// Dirty dst to check the full overwrite.
		dst.Fill(true)
		TransposeBits(dst, src, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if dst.Get(c*n+r) != data[r*n+c] {
					t.Fatalf("n=%d: transpose bit (%d,%d) wrong", n, r, c)
				}
			}
		}
	}
}
