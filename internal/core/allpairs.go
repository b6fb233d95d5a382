package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// AllPairs solves the all-pairs minimum cost path problem by running the
// single-destination algorithm once per destination — the usage pattern
// the dynamic-programming formulation was designed for on the Connection
// Machine and the GCN (building complete routing tables).
type AllPairs struct {
	N int
	// Dist is row-major: Dist[i*N+j] is the MCP cost from i to j
	// (graph.NoEdge if unreachable).
	Dist []int64
	// Next is row-major: Next[i*N+j] is the vertex after i on an MCP to j
	// (-1 on the diagonal and for unreachable pairs).
	Next []int
	// Metrics is the summed machine cost over all n solves.
	Metrics ppa.Metrics
	// Iterations is the summed DP round count.
	Iterations int
}

// SolveAllPairs runs the DP for every destination and assembles the full
// distance and next-hop matrices. Destinations are split into contiguous
// shards over min(GOMAXPROCS, n) workers; each worker drives its shard
// through one warm session's SolveSweep (one machine, one weight DMA)
// and closes the session when its shard is done. Results are deterministic for any
// worker count: each destination's solve is self-contained, the
// aggregation order is fixed, and on failure the reported error is the
// one at the smallest failing destination index — every shard stops at
// its own first error, so the shard containing the globally smallest
// failing index always reaches and records it.
func SolveAllPairs(g *graph.Graph, opt Options) (*AllPairs, error) {
	n := g.N
	ap := &AllPairs{
		N:    n,
		Dist: make([]int64, n*n),
		Next: make([]int, n*n),
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			session, err := NewSession(g, opt)
			if err != nil {
				errs[lo] = err
				return
			}
			defer session.Close()
			dests := make([]int, hi-lo)
			for i := range dests {
				dests[i] = lo + i
			}
			err = session.SolveSweep(context.Background(), dests, func(r *Result) error {
				results[r.Dest] = r
				return nil
			})
			if err != nil {
				// The sweep stopped at its shard's first failing
				// destination: the one after the last yielded result.
				first := lo
				for first < hi-1 && results[first] != nil {
					first++
				}
				errs[first] = err
			}
		}(lo, hi)
	}
	wg.Wait()

	for dest := 0; dest < n; dest++ {
		if errs[dest] != nil {
			return nil, fmt.Errorf("core: all-pairs destination %d: %w", dest, errs[dest])
		}
		r := results[dest]
		for i := 0; i < n; i++ {
			ap.Dist[i*n+dest] = r.Dist[i]
			ap.Next[i*n+dest] = r.Next[i]
		}
		ap.Metrics = ap.Metrics.Add(r.Metrics)
		ap.Iterations += r.Iterations
	}
	return ap, nil
}

// Path reconstructs the vertex sequence of an MCP from i to j (both
// inclusive); ok is false when j is unreachable from i.
func (ap *AllPairs) Path(i, j int) (path []int, ok bool) {
	if i < 0 || i >= ap.N || j < 0 || j >= ap.N {
		return nil, false
	}
	if i == j {
		return []int{i}, true
	}
	if ap.Dist[i*ap.N+j] == graph.NoEdge {
		return nil, false
	}
	path = []int{i}
	v := i
	for steps := 0; v != j; steps++ {
		if steps > ap.N {
			return nil, false
		}
		v = ap.Next[v*ap.N+j]
		if v < 0 || v >= ap.N {
			return nil, false
		}
		path = append(path, v)
	}
	return path, true
}

// SourceResult is the outcome of SolveFromSource: minimum cost paths from
// one source vertex to every other vertex.
type SourceResult struct {
	Source int
	// Dist[j] is the MCP cost from Source to j.
	Dist []int64
	// Prev[j] is the vertex *preceding* j on an MCP from Source (-1 for
	// the source itself and unreachable vertices). Follow Prev backwards
	// to reconstruct paths, or use PathTo.
	Prev []int
	// Iterations and Metrics mirror Result's accounting.
	Iterations int
	Metrics    ppa.Metrics
	Bits       uint
}

// SolveFromSource computes single-SOURCE minimum cost paths on the PPA by
// the standard reversal: paths from s to j in g are paths from j to s in
// the transpose of g, so one single-destination solve on the transposed
// weight matrix (a relabelling of which PE holds which w_ij — free at
// load time) yields all of them. The paper only states the
// single-destination variant; this adapter is part of the library surface
// because routing-style applications need both orientations.
func SolveFromSource(g *graph.Graph, source int, opt Options) (*SourceResult, error) {
	r, err := Solve(g.Transpose(), source, opt)
	if err != nil {
		return nil, err
	}
	return &SourceResult{
		Source:     source,
		Dist:       r.Dist,
		Prev:       r.Next, // next hop toward s in the transpose = predecessor in g
		Iterations: r.Iterations,
		Metrics:    r.Metrics,
		Bits:       r.Bits,
	}, nil
}

// PathTo reconstructs the vertex sequence of an MCP from the source to j.
func (s *SourceResult) PathTo(j int) (path []int, ok bool) {
	if j < 0 || j >= len(s.Dist) {
		return nil, false
	}
	if j == s.Source {
		return []int{j}, true
	}
	if s.Dist[j] == graph.NoEdge {
		return nil, false
	}
	rev := []int{j}
	v := j
	for steps := 0; v != s.Source; steps++ {
		if steps > len(s.Dist) {
			return nil, false
		}
		v = s.Prev[v]
		if v < 0 || v >= len(s.Dist) {
			return nil, false
		}
		rev = append(rev, v)
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev, true
}
