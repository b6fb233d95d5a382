package graph

import (
	"encoding/json"
	"fmt"

	"ppamcp/internal/jsonscan"
)

// graphJSON is the wire shape of a Graph: the vertex count plus a sparse
// edge list of [from, to, weight] triples. It is the JSON twin of the
// line-oriented text format (Format/Parse) and is what the solver service
// (internal/serve) accepts and the load generator emits.
type graphJSON struct {
	N     int       `json:"n"`
	Edges [][]int64 `json:"edges"`
}

// MarshalJSON encodes the graph as {"n": <count>, "edges": [[i,j,w], ...]}
// with edges in row-major order; absent edges (NoEdge) are omitted.
func (g *Graph) MarshalJSON() ([]byte, error) {
	wire := graphJSON{N: g.N, Edges: make([][]int64, 0, g.Edges())}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if wt := g.At(i, j); wt != NoEdge {
				wire.Edges = append(wire.Edges, []int64{int64(i), int64(j), wt})
			}
		}
	}
	return json.Marshal(wire)
}

// UnmarshalJSON decodes the MarshalJSON representation; see DecodeJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	return g.decodeJSON(data, MaxParseVertices)
}

// DecodeJSON decodes the MarshalJSON representation in one pass over the
// bytes, writing each [from, to, weight] triple straight into the dense
// matrix. It applies the same admission checks as the text Parse: the
// vertex count must lie in [1, maxN] (maxN is capped at MaxParseVertices,
// and is checked before the n^2 allocation, so an untrusted {"n": 8192}
// cannot demand a huge matrix), every edge must have exactly three
// elements, vertices must be in range, and weights must be non-negative.
// As in the text format, a repeated edge keeps the last weight.
//
// It accepts exactly the documents json.Unmarshal accepts into
// {N int; Edges [][]int64} followed by those checks, with the same result
// (see package jsonscan for the JSON rules this covers).
func DecodeJSON(data []byte, maxN int) (*Graph, error) {
	g := new(Graph)
	if err := g.decodeJSON(data, maxN); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *Graph) decodeJSON(data []byte, maxN int) error {
	maxN = min(maxN, MaxParseVertices)
	s := jsonscan.New(data)
	n := 0
	// In the usual spelling "n" comes first and "edges" once, and the
	// triples are written into w (sized for wn vertices) as they are
	// read; bad holds the first triple that failed admission. A later
	// "n" or "edges" key can still change the outcome, so every "edges"
	// value is also kept (edges the last, all each once the key repeats)
	// and re-read once the final n is known.
	var w []int64
	wn := 0
	var bad error
	var edges []byte
	var all [][]byte
	if !s.Null() {
		if s.Peek() != '{' {
			return fmt.Errorf("graph: %v", s.TypeError("graph.graphJSON"))
		}
		err := s.Object(func(key []byte) error {
			switch {
			case jsonscan.KeyIs(key, "n"):
				if s.Null() {
					return nil
				}
				v, err := s.Int()
				n = int(v)
				return err
			case jsonscan.KeyIs(key, "edges"):
				start := s.Offset()
				var err error
				if edges == nil && 1 <= n && n <= maxN {
					w, wn = noEdges(n), n
					bad, err = fillEdges(s, w, n)
				} else {
					_, err = s.Skip()
				}
				v := data[start:s.Offset()]
				if edges != nil {
					if all == nil {
						all = [][]byte{edges}
					}
					all = append(all, v)
				}
				edges = v
				return err
			default:
				_, err := s.Skip()
				return err
			}
		})
		if err != nil {
			return fmt.Errorf("graph: %v", err)
		}
	}
	if err := s.End(); err != nil {
		return fmt.Errorf("graph: %v", err)
	}
	if n < 1 {
		return fmt.Errorf("graph: n = %d < 1", n)
	}
	if n > maxN {
		if maxN == MaxParseVertices {
			return fmt.Errorf("graph: n = %d exceeds MaxParseVertices (%d)", n, MaxParseVertices)
		}
		return fmt.Errorf("graph: n = %d exceeds server limit %d", n, maxN)
	}
	switch {
	case all != nil:
		w = noEdges(n)
		bad = setEdgeList(w, n, all)
	case w == nil || wn != n:
		w = noEdges(n)
		if edges != nil {
			var err error
			if bad, err = fillEdges(jsonscan.New(edges), w, n); err != nil {
				return fmt.Errorf("graph: %v", err)
			}
		}
	}
	if bad != nil {
		return bad
	}
	g.N = n
	g.W = w
	return nil
}

func noEdges(n int) []int64 {
	w := make([]int64, n*n)
	for i := range w {
		w[i] = NoEdge
	}
	return w
}

// fillEdges reads one "edges" value into w. null means no edges, and each
// element decodes as a fresh []int64 would, so a null inside a triple
// reads as 0. err is a JSON syntax or type error; bad is the first
// triple that fails admission, after which the value is still read to
// its end but nothing more is written.
func fillEdges(s *jsonscan.Scanner, w []int64, n int) (bad, err error) {
	if s.Null() {
		return nil, nil
	}
	if s.Peek() != '[' {
		return nil, s.TypeError("[][]int64")
	}
	var buf [3]int64
	err = s.Array(func(k int) error {
		e := buf[:]
		if t, ok := s.Triple(); ok {
			buf = t
		} else {
			buf = [3]int64{}
			var err error
			if e, err = jsonscan.Ints(s, buf[:0]); err != nil {
				return err
			}
		}
		if bad == nil {
			bad = setEdge(w, n, k, e)
		}
		return nil
	})
	return bad, err
}

// setEdgeList handles a repeated "edges" key. encoding/json decodes each
// repetition into the same [][]int64, reusing the backing arrays, so a
// null element of a later list reads the value an earlier list left in
// that slot; the lists are therefore decoded in order into one slice
// before the last is written into w.
func setEdgeList(w []int64, n int, lists [][]byte) error {
	var edges [][]int64
	for _, list := range lists {
		s := jsonscan.New(list)
		if s.Null() {
			edges = nil
			continue
		}
		if s.Peek() != '[' {
			return fmt.Errorf("graph: %v", s.TypeError("[][]int64"))
		}
		count := 0
		err := s.Array(func(i int) error {
			if i < cap(edges) {
				edges = edges[:i+1]
			} else {
				edges = append(edges, nil)
			}
			count = i + 1
			var err error
			edges[i], err = jsonscan.Ints(s, edges[i])
			return err
		})
		if err != nil {
			return fmt.Errorf("graph: %v", err)
		}
		if count == 0 {
			edges = [][]int64{}
		} else {
			edges = edges[:count]
		}
	}
	for k, e := range edges {
		if err := setEdge(w, n, k, e); err != nil {
			return err
		}
	}
	return nil
}

// setEdge checks edge k's triple e and stores it.
func setEdge(w []int64, n, k int, e []int64) error {
	if len(e) != 3 {
		return fmt.Errorf("graph: edge %d: want [from, to, weight], got %d elements", k, len(e))
	}
	i, j, wt := e[0], e[1], e[2]
	if i < 0 || i >= int64(n) || j < 0 || j >= int64(n) {
		return fmt.Errorf("graph: edge %d: vertex out of range", k)
	}
	if wt < 0 {
		return fmt.Errorf("graph: edge %d: negative weight %d", k, wt)
	}
	w[i*int64(n)+j] = wt
	return nil
}
