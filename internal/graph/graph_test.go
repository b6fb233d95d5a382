package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	g := New(3)
	if g.Edges() != 0 || g.HasEdge(0, 1) {
		t.Error("new graph not empty")
	}
	g.SetEdge(0, 1, 5)
	g.SetEdge(1, 2, 7)
	if g.At(0, 1) != 5 || g.At(1, 2) != 7 || g.At(2, 0) != NoEdge {
		t.Error("At/SetEdge wrong")
	}
	if g.Edges() != 2 || g.MaxWeight() != 7 {
		t.Errorf("Edges=%d MaxWeight=%d", g.Edges(), g.MaxWeight())
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.Edges() != 1 {
		t.Error("RemoveEdge failed")
	}
}

func TestNewPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestSetEdgeRejectsNegative(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	g.SetEdge(0, 1, -3)
}

func TestCloneIndependence(t *testing.T) {
	g := New(2)
	g.SetEdge(0, 1, 1)
	c := g.Clone()
	c.SetEdge(1, 0, 9)
	if g.HasEdge(1, 0) {
		t.Error("Clone shares storage")
	}
}

func TestTransposeAndSymmetric(t *testing.T) {
	g := New(3)
	g.SetEdge(0, 1, 4)
	g.SetEdge(2, 1, 6)
	tr := g.Transpose()
	if tr.At(1, 0) != 4 || tr.At(1, 2) != 6 || tr.At(0, 1) != NoEdge {
		t.Error("Transpose wrong")
	}
	if g.Symmetric() {
		t.Error("asymmetric graph reported symmetric")
	}
	g.SetEdge(1, 0, 4)
	g.SetEdge(1, 2, 6)
	if !g.Symmetric() {
		t.Error("symmetric graph reported asymmetric")
	}
	if !reflect.DeepEqual(g.Transpose().W, g.W) {
		t.Error("transpose of symmetric differs")
	}
}

func TestValidate(t *testing.T) {
	g := New(2)
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	g.W[1] = -1 // bypass SetEdge guard
	if err := g.Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	g2 := &Graph{N: 2, W: make([]int64, 3)}
	if err := g2.Validate(); err == nil {
		t.Error("bad matrix length accepted")
	}
}

func TestBitsNeeded(t *testing.T) {
	g := New(4)
	g.SetEdge(0, 1, 10)
	// Bound = 3*10+1 = 31; need 2^h-1 > 31 -> h = 6.
	if got := g.BitsNeeded(); got != 6 {
		t.Errorf("BitsNeeded = %d, want 6", got)
	}
	// A single-vertex graph still needs one bit.
	if got := New(1).BitsNeeded(); got < 1 {
		t.Errorf("BitsNeeded on trivial graph = %d", got)
	}
	// Weightless graphs: MAXINT = 2^h-1 must still hold vertex index n-1.
	for _, c := range []struct {
		n    int
		want uint
	}{{2, 2}, {4, 2}, {5, 3}, {6, 3}, {9, 4}, {300, 9}} {
		g := New(c.n)
		if c.n > 2 {
			g.SetEdge(0, 2, 0)
		}
		if got := g.BitsNeeded(); got != c.want {
			t.Errorf("n=%d all-zero weights: BitsNeeded = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	g := GenRandom(7, 0.4, 9, 11)
	var buf bytes.Buffer
	if err := g.Format(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || !reflect.DeepEqual(back.W, g.W) {
		t.Error("round trip differs")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                  // missing header
		"e 0 1 2\n",         // edge before header
		"n 0\n",             // bad n
		"n 2\ne 0 5 1\n",    // vertex out of range
		"n 2\ne 0 1 -2\n",   // negative weight
		"n 2\nbogus line\n", // unrecognized
		"n x\n",             // malformed n
		"n 2\ne 0 one 2\n",  // malformed edge
		"n 1000000000\n",    // absurd allocation request
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestParseSkipsCommentsAndBlank(t *testing.T) {
	in := "# comment\n\nn 2\n# another\ne 0 1 3\n"
	g, err := Parse(strings.NewReader(in))
	if err != nil || g.At(0, 1) != 3 {
		t.Fatalf("Parse with comments: %v, %v", g, err)
	}
}

func TestString(t *testing.T) {
	g := GenChain(4, 1)
	if got := g.String(); got != "graph(n=4, edges=3)" {
		t.Errorf("String = %q", got)
	}
}

func TestGenRandomDeterministicAndBounded(t *testing.T) {
	a := GenRandom(10, 0.5, 20, 3)
	b := GenRandom(10, 0.5, 20, 3)
	if !reflect.DeepEqual(a.W, b.W) {
		t.Error("GenRandom not deterministic in seed")
	}
	c := GenRandom(10, 0.5, 20, 4)
	if reflect.DeepEqual(a.W, c.W) {
		t.Error("different seeds gave identical graphs")
	}
	for i := 0; i < 10; i++ {
		if a.HasEdge(i, i) {
			t.Error("self loop generated")
		}
		for j := 0; j < 10; j++ {
			if w := a.At(i, j); w != NoEdge && (w < 1 || w > 20) {
				t.Errorf("weight %d outside [1,20]", w)
			}
		}
	}
}

func TestGenRandomPanics(t *testing.T) {
	for _, f := range []func(){
		func() { GenRandom(3, -0.1, 5, 1) },
		func() { GenRandom(3, 1.5, 5, 1) },
		func() { GenRandom(3, 0.5, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad GenRandom args did not panic")
				}
			}()
			f()
		}()
	}
}

func TestGenRandomConnectedReachability(t *testing.T) {
	g := GenRandomConnected(12, 0.05, 9, 5)
	bf, err := BellmanFord(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range bf.Dist {
		if d == NoEdge {
			t.Errorf("vertex %d unreachable in connected graph", i)
		}
	}
}

func TestGenChain(t *testing.T) {
	g := GenChain(5, 2)
	if g.Edges() != 4 || g.At(0, 1) != 2 || g.At(3, 4) != 2 || g.HasEdge(4, 0) {
		t.Error("GenChain wrong")
	}
}

func TestGenDiameter(t *testing.T) {
	for _, p := range []int{1, 3, 7} {
		g := GenDiameter(8, p)
		got, err := MaxPathLength(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Errorf("GenDiameter(8, %d): MaxPathLength = %d", p, got)
		}
		bf, _ := BellmanFord(g, 0)
		for i := 1; i < 8; i++ {
			if bf.Dist[i] == NoEdge {
				t.Errorf("GenDiameter(8, %d): vertex %d unreachable", p, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("GenDiameter(4, 4) did not panic")
		}
	}()
	GenDiameter(4, 4)
}

func TestGenRingStarComplete(t *testing.T) {
	r := GenRing(4, 3)
	if r.Edges() != 4 || r.At(3, 0) != 3 {
		t.Error("GenRing wrong")
	}
	s := GenStar(5, 2)
	if s.Edges() != 4 {
		t.Error("GenStar wrong")
	}
	for v := 1; v < 5; v++ {
		if s.At(v, 0) != 2 {
			t.Errorf("star edge %d->0 = %d", v, s.At(v, 0))
		}
	}
	k := GenComplete(4, 5, 1)
	if k.Edges() != 12 {
		t.Errorf("complete graph has %d edges, want 12", k.Edges())
	}
}

func TestGenGrid(t *testing.T) {
	g, blocked := GenGrid(GridSpec{Rows: 4, Cols: 5, MaxW: 3, Obstacle: 0.2, Seed: 9})
	if g.N != 20 || blocked[0] || blocked[19] {
		t.Fatal("grid shape or corner blocking wrong")
	}
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if !g.HasEdge(u, v) {
				continue
			}
			if blocked[u] || blocked[v] {
				t.Errorf("edge %d->%d touches an obstacle", u, v)
			}
			ur, uc, vr, vc := u/5, u%5, v/5, v%5
			manhattan := abs(ur-vr) + abs(uc-vc)
			if manhattan != 1 {
				t.Errorf("edge %d->%d is not a grid neighbour", u, v)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestGenLayeredDAG(t *testing.T) {
	g := GenLayeredDAG(4, 3, 5, 2)
	if g.N != 13 {
		t.Fatalf("n = %d, want 13", g.N)
	}
	sink := 12
	bf, err := BellmanFord(g, sink)
	if err != nil {
		t.Fatal(err)
	}
	// Every layer-0 vertex reaches the sink.
	for i := 0; i < 3; i++ {
		if bf.Dist[i] == NoEdge {
			t.Errorf("layer-0 vertex %d unreachable", i)
		}
	}
	// DAG property: no edge goes backwards or within a layer.
	for u := 0; u < 12; u++ {
		for v := 0; v < 13; v++ {
			if g.HasEdge(u, v) && v != sink && v/3 != u/3+1 {
				t.Errorf("edge %d->%d violates layering", u, v)
			}
		}
	}
}
