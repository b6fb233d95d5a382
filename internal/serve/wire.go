// Package serve is the solver service: an HTTP/JSON daemon that amortizes
// the paper's expensive per-graph setup (fabric construction, coordinate
// masks, weight loading) across many minimum-cost-path queries.
//
// The core observation is that core.Session already splits the work the
// way a server wants it split: building an n x n machine is costly, while
// a warm Solve is cheap (~0.1 ms at n=64). The service therefore keeps a
// pool of warm sessions keyed by array size n and word width h, re-loads
// a checked-out session with each request's weights (Session.Reload, no
// re-allocation), and coalesces queued requests for the *same* graph into
// one session checkout (micro-batching), so a burst of routing queries
// against one topology pays for one weight DMA.
//
// Around that core sits the production envelope: a bounded admission
// queue that sheds load with 429 + Retry-After instead of collapsing,
// per-request deadlines propagated via context.Context and observed
// between DP iterations (a dead client cannot pin a session), panic
// isolation per request (a poisoned session is discarded, not repooled),
// graceful shutdown that drains in-flight solves, and an observability
// surface (/healthz, /metrics) exposing request counts, latency
// histograms, pool and queue behaviour, and the paper's cost-model
// counters (bus cycles, wired-OR cycles, PE ops) aggregated per endpoint.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"ppamcp/internal/cli"
	"ppamcp/internal/graph"
	"ppamcp/internal/jsonscan"
	"ppamcp/internal/ppa"
)

// SolveRequest is the body of POST /v1/solve. Exactly one of Graph (an
// inline graph in the graph JSON wire format) or Gen (a named generator
// spec, the JSON form of the CLI workload flags) must be set. Both are
// kept as raw JSON so admission checks run before any n^2 allocation.
type SolveRequest struct {
	// Graph is an inline {"n": ..., "edges": [[i,j,w], ...]} graph.
	Graph json.RawMessage `json:"graph,omitempty"`
	// Gen is a generator spec: {"gen":"connected","n":64,"seed":7,...}.
	// Fields follow internal/cli flag names; omitted fields keep the CLI
	// defaults. File-based workloads are not reachable from the wire.
	Gen json.RawMessage `json:"gen,omitempty"`
	// Dests lists the destination vertices to solve for.
	Dests []int `json:"dests"`
	// Bits forces the machine word width h (0 = auto, quantized upward
	// so same-size requests share pooled sessions).
	Bits uint `json:"bits,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds (0 = server
	// default; capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BuildGraph materializes the request's graph, enforcing maxN before the
// dense matrix is allocated.
func (r *SolveRequest) BuildGraph(maxN int) (*graph.Graph, error) {
	switch {
	case len(r.Graph) > 0 && len(r.Gen) > 0:
		return nil, fmt.Errorf("request has both graph and gen; want exactly one")
	case len(r.Graph) > 0:
		return graph.DecodeJSON(r.Graph, maxN)
	case len(r.Gen) > 0:
		w := cli.Default()
		if err := json.Unmarshal(r.Gen, &w); err != nil {
			return nil, fmt.Errorf("gen: %v", err)
		}
		w.File = "" // defence in depth; the json tag already blocks it
		if w.N > maxN || w.Rows*w.Cols > maxN {
			return nil, fmt.Errorf("gen: n = %d exceeds server limit %d", w.N, maxN)
		}
		g, err := w.Build()
		if err != nil {
			return nil, fmt.Errorf("gen: %v", err)
		}
		if g.N > maxN {
			return nil, fmt.Errorf("gen: built %d vertices, exceeds server limit %d", g.N, maxN)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("request needs a graph or a gen spec")
	}
}

// DecodeSolveRequest decodes a POST /v1/solve body in one pass without
// reflection: it accepts exactly the bodies json.Unmarshal accepts into a
// SolveRequest (trailing data included, so that is rejected) and yields
// the same values. Graph and Gen are sub-slices of body, validated but
// not yet decoded; BuildGraph decodes them. A POST /v1/allpairs body has
// the same fields and decodes as AllPairsRequest(req).
func DecodeSolveRequest(body []byte) (SolveRequest, error) {
	req, _, err := decodeEnvelope(body, false)
	return req, err
}

// decodeEnvelope reads the fields shared by the graph-carrying request
// bodies. A session-create body has no timeout_ms, and its dests value
// (a list or the "all" keyword) is returned raw, last key winning.
// Otherwise dests decodes in place, as encoding/json decodes a repeated
// key into the same slice.
func decodeEnvelope(body []byte, session bool) (req SolveRequest, dests []byte, err error) {
	s := jsonscan.New(body)
	if !s.Null() {
		if s.Peek() != '{' {
			return req, nil, s.TypeError("serve.SolveRequest")
		}
		err = s.Object(func(key []byte) error {
			var err error
			switch {
			case jsonscan.KeyIs(key, "graph"):
				req.Graph, err = s.Skip()
			case jsonscan.KeyIs(key, "gen"):
				req.Gen, err = s.Skip()
			case jsonscan.KeyIs(key, "dests") && session:
				dests, err = s.Skip()
			case jsonscan.KeyIs(key, "dests"):
				req.Dests, err = jsonscan.Ints(s, req.Dests)
			case jsonscan.KeyIs(key, "bits"):
				if !s.Null() {
					var b uint64
					b, err = s.Uint()
					req.Bits = uint(b)
				}
			case jsonscan.KeyIs(key, "timeout_ms") && !session:
				if !s.Null() {
					req.TimeoutMS, err = s.Int()
				}
			default:
				_, err = s.Skip()
			}
			return err
		})
		if err != nil {
			return req, nil, err
		}
	}
	return req, dests, s.End()
}

// ReadBody reads a request body whole, capped at limit bytes. On failure
// it also returns the status to answer with: 413 for a body over the cap,
// 400 for any other read error.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	return body, http.StatusOK, nil
}

// DestResult is the solution for one destination: Dist[i] is the minimum
// path cost from vertex i to Dest (-1 when unreachable), Next[i] the next
// hop on that path (-1 at the destination and on unreachable vertices),
// and Iterations the DP round count p+1 the solve converged in.
type DestResult struct {
	Dest       int     `json:"dest"`
	Dist       []int64 `json:"dist"`
	Next       []int   `json:"next"`
	Iterations int     `json:"iterations"`
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	N       int          `json:"n"`
	Bits    uint         `json:"bits"`
	Results []DestResult `json:"results"`
	// Cost is the abstract machine cost of the solves that produced this
	// response. Solves shared with coalesced requests for the same graph
	// are charged to every request that consumed them.
	Cost ppa.Metrics `json:"cost"`
	// PoolHit reports whether the request ran on a recycled warm session.
	PoolHit bool `json:"pool_hit"`
	// Batched is the number of requests served by the session checkout
	// that served this one (1 = no coalescing happened).
	Batched int `json:"batched"`
}

// AllPairsRequest is the body of POST /v1/allpairs: one graph (inline or
// generated, as in SolveRequest). With no destination list the server
// sweeps every destination 0..n-1 on one warm session and streams the
// rows back as NDJSON; an optional dests list restricts the sweep to that
// subset (distinct, in range, streamed in the given order) so clients can
// take a partial table without paying for all n rows. Width and deadline
// semantics match /v1/solve.
type AllPairsRequest struct {
	Graph     json.RawMessage `json:"graph,omitempty"`
	Gen       json.RawMessage `json:"gen,omitempty"`
	Dests     []int           `json:"dests,omitempty"`
	Bits      uint            `json:"bits,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

// BuildGraph materializes the request's graph under the same admission
// rules as /v1/solve.
func (r *AllPairsRequest) BuildGraph(maxN int) (*graph.Graph, error) {
	sr := SolveRequest{Graph: r.Graph, Gen: r.Gen}
	return sr.BuildGraph(maxN)
}

// AllPairsHeader is the first NDJSON line of a /v1/allpairs stream. The
// destination rows follow (each a DestResult — all n in ascending dest
// order, or the requested subset in request order), then an
// AllPairsTrailer. A stream that ends without a done:true trailer is
// incomplete; its last line is an ErrorResponse naming the failure.
type AllPairsHeader struct {
	N    int  `json:"n"`
	Bits uint `json:"bits"`
}

// AllPairsTrailer is the final NDJSON line of a complete stream.
type AllPairsTrailer struct {
	Done bool `json:"done"`
	// Rows is the number of destination rows streamed (on success: n, or
	// the size of the requested dests subset).
	Rows int `json:"rows"`
	// Cost is the summed machine cost over the whole sweep; Iterations
	// the summed DP round count.
	Cost       ppa.Metrics `json:"cost"`
	Iterations int         `json:"iterations"`
	// PoolHit reports whether the sweep ran on a recycled warm session.
	PoolHit bool `json:"pool_hit"`
}

// ErrorResponse is the body of every non-2xx reply, and the final line of
// an incomplete /v1/allpairs stream.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthStatus is the body of GET /healthz. The status code carries the
// load-balancer contract (200 while serving, 503 once draining); the
// body lets the router tier weight and evict backends on load, not just
// liveness. Fields are point-in-time gauges.
type HealthStatus struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// PoolIdle is the number of warm sessions parked in the pool.
	PoolIdle int `json:"pool_idle"`
	// QueueDepth is the number of batches waiting for a worker.
	QueueDepth int `json:"queue_depth"`
	// InflightBatches is the number of batches being solved right now.
	InflightBatches int64 `json:"inflight_batches"`
	// Sessions is the number of live dynamic-graph sessions.
	Sessions int `json:"sessions"`
	// Draining mirrors the 503 status code for JSON-only consumers.
	Draining bool `json:"draining"`
}
