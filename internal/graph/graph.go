// Package graph provides the problem substrate for the MCP reproduction:
// dense weighted directed graphs in the matrix representation the paper
// assumes (W[i][j] = weight of the edge from vertex i to vertex j, MAXINT
// when absent), deterministic workload generators, and the sequential
// reference algorithms (Bellman-Ford, Dijkstra, Floyd-Warshall) every
// parallel backend is validated against.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// NoEdge is the host-side "no edge" sentinel. Machine backends map it to
// their own MAXINT (all-ones h-bit word) when the graph is loaded.
const NoEdge = int64(math.MaxInt64)

// MaxParseVertices bounds the vertex count Parse accepts: the dense
// matrix representation allocates n^2 cells, so an untrusted header must
// not be able to demand an absurd allocation.
const MaxParseVertices = 8192

// Graph is a dense weighted directed graph over vertices 0..N-1.
// W is row-major: W[i*N+j] is the weight of edge i -> j, or NoEdge.
// Weights must be non-negative (the PPA MCP algorithm, like any
// shortest-path DP with this termination rule, assumes no negative edges).
type Graph struct {
	N int
	W []int64
}

// New returns an n-vertex graph with no edges.
func New(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: n = %d < 1", n))
	}
	w := make([]int64, n*n)
	for i := range w {
		w[i] = NoEdge
	}
	return &Graph{N: n, W: w}
}

// At returns the weight of edge i -> j (NoEdge if absent).
func (g *Graph) At(i, j int) int64 { return g.W[i*g.N+j] }

// SetEdge sets the weight of edge i -> j. It panics on a negative weight;
// use RemoveEdge (or SetEdge with NoEdge) to delete.
func (g *Graph) SetEdge(i, j int, w int64) {
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %d on edge %d->%d", w, i, j))
	}
	g.W[i*g.N+j] = w
}

// RemoveEdge deletes edge i -> j.
func (g *Graph) RemoveEdge(i, j int) { g.W[i*g.N+j] = NoEdge }

// HasEdge reports whether edge i -> j exists.
func (g *Graph) HasEdge(i, j int) bool { return g.W[i*g.N+j] != NoEdge }

// Edges returns the number of present edges.
func (g *Graph) Edges() int {
	n := 0
	for _, w := range g.W {
		if w != NoEdge {
			n++
		}
	}
	return n
}

// MaxWeight returns the largest finite edge weight (0 for an edgeless
// graph).
func (g *Graph) MaxWeight() int64 {
	var max int64
	for _, w := range g.W {
		if w != NoEdge && w > max {
			max = w
		}
	}
	return max
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	return &Graph{N: g.N, W: append([]int64(nil), g.W...)}
}

// Transpose returns the graph with every edge reversed.
func (g *Graph) Transpose() *Graph {
	t := New(g.N)
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			t.W[j*g.N+i] = g.W[i*g.N+j]
		}
	}
	return t
}

// Symmetric reports whether W equals its transpose (i.e. the graph is
// effectively undirected).
func (g *Graph) Symmetric() bool {
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if g.W[i*g.N+j] != g.W[j*g.N+i] {
				return false
			}
		}
	}
	return true
}

// Validate checks structural invariants: no negative weights.
func (g *Graph) Validate() error {
	if len(g.W) != g.N*g.N {
		return fmt.Errorf("graph: matrix length %d, want %d", len(g.W), g.N*g.N)
	}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if w := g.W[i*g.N+j]; w != NoEdge && w < 0 {
				return fmt.Errorf("graph: negative weight %d on edge %d->%d", w, i, j)
			}
		}
	}
	return nil
}

// BitsNeeded returns the smallest machine word width h the DP can run
// with: the machine MAXINT (2^h-1) must strictly exceed any finite
// shortest-path cost, which is bounded by (n-1) * maxWeight, and must
// hold every vertex index up to n-1 (the PTN plane stores them). The
// second bound only binds when every weight is zero.
func (g *Graph) BitsNeeded() uint {
	bound := int64(g.N-1)*g.MaxWeight() + 1
	h := uint(1)
	for int64(1)<<h-1 <= bound || int64(1)<<h-1 < int64(g.N-1) {
		h++
	}
	return h
}

// Format writes the graph in a simple line-oriented text format:
//
//	n <vertices>
//	e <from> <to> <weight>   (one line per edge)
func (g *Graph) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N); err != nil {
		return err
	}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if wt := g.At(i, j); wt != NoEdge {
				if _, err := fmt.Fprintf(bw, "e %d %d %d\n", i, j, wt); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Parse reads the Format representation.
func Parse(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(text, "n "):
			var n int
			if _, err := fmt.Sscanf(text, "n %d", &n); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if n < 1 {
				return nil, fmt.Errorf("graph: line %d: n = %d < 1", line, n)
			}
			if n > MaxParseVertices {
				return nil, fmt.Errorf("graph: line %d: n = %d exceeds MaxParseVertices (%d)", line, n, MaxParseVertices)
			}
			g = New(n)
		case strings.HasPrefix(text, "e "):
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before n header", line)
			}
			var i, j int
			var wt int64
			if _, err := fmt.Sscanf(text, "e %d %d %d", &i, &j, &wt); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if i < 0 || i >= g.N || j < 0 || j >= g.N {
				return nil, fmt.Errorf("graph: line %d: vertex out of range", line)
			}
			if wt < 0 {
				return nil, fmt.Errorf("graph: line %d: negative weight %d", line, wt)
			}
			g.SetEdge(i, j, wt)
		default:
			return nil, fmt.Errorf("graph: line %d: unrecognized %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing n header")
	}
	return g, nil
}

func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph(n=%d, edges=%d)", g.N, g.Edges())
	return sb.String()
}
