package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// This file is the request lifecycle of the graph-carrying endpoints,
// /v1/solve, /v1/allpairs and POST /v1/session, written once: intake,
// load shedding, the panic guard around a checked-out session and the
// sweep-stream loop. What differs between the endpoints is handed in as
// a route.

// route is what one graph-carrying endpoint brings to intake.
type route struct {
	// decode reads the body once and builds its graph.
	decode func(body []byte, maxN int) (SolveRequest, *graph.Graph, error)
	// none refuses an empty destination list. Without it an empty list
	// asks for every destination.
	none string
	// max caps an explicit list; limit names the cap in the refusal.
	max   int
	limit string
	// maxAll caps an all-destination set; overAll formats its refusal
	// from n and maxAll.
	maxAll  int
	overAll string
	// distinct refuses a repeated destination.
	distinct bool
	// timed routes feed the request-latency histogram.
	timed bool
}

// decodeSessionRoute is a session's decode step: its "dests": "all" asks
// for every destination as an empty list does, and a missing or empty
// list is refused.
func decodeSessionRoute(body []byte, maxN int) (SolveRequest, *graph.Graph, error) {
	req, g, err := decodeSessionCreateRequest(body, maxN)
	if err == nil && !req.AllDests && len(req.Dests) == 0 {
		err = errors.New(`dests must name at least one destination (or "all")`)
	}
	return SolveRequest{Dests: req.Dests, Bits: req.Bits}, g, err
}

// dests applies the route's list policy to a request's destinations for
// an n-vertex graph. It returns nil when the request asks for every
// destination.
func (rt *route) dests(req []int, n int) ([]int, error) {
	all := len(req) == 0 && rt.none == ""
	switch {
	case all && n > rt.maxAll:
		return nil, fmt.Errorf(rt.overAll, n, rt.maxAll)
	case all:
		return nil, nil
	case len(req) == 0:
		return nil, errors.New(rt.none)
	case len(req) > rt.max:
		return nil, fmt.Errorf("%d dests exceeds %s limit %d", len(req), rt.limit, rt.max)
	}
	return req, nil
}

// admitted is a graph-carrying request that passed intake: its graph, the
// machine word width, the destinations in the order they are answered,
// and its deadline.
type admitted struct {
	g       *graph.Graph
	h       uint
	dests   []int
	timeout time.Duration
}

// counted is the handler of an endpoint that returns the status it
// answered with: every answer is counted by path and status.
func (s *Server) counted(path string, fn func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.RecordRequest(path, fn(w, r))
	}
}

// graphRoute is the handler of one graph-carrying endpoint: intake, then
// next on the admitted request. A timed route also feeds the
// request-latency histogram.
func (s *Server) graphRoute(path string, rt route, next func(http.ResponseWriter, *http.Request, admitted) int) http.HandlerFunc {
	return s.counted(path, func(w http.ResponseWriter, r *http.Request) int {
		if rt.timed {
			start := time.Now()
			defer func() { s.metrics.ObserveLatency(time.Since(start)) }()
		}
		a, code := s.intake(w, r, &rt)
		if code != 0 {
			return code
		}
		return next(w, r, a)
	})
}

// intake is the front half of every graph-carrying request. It refuses
// work while draining, reads the body once (ReadBody), decodes it with the
// graph built in the same pass, applies the route's destination policy
// and the admission rule (Admit), and clamps the deadline. A refused
// request has its ErrorResponse written and intake returns its status; an
// admitted one returns 0.
func (s *Server) intake(w http.ResponseWriter, r *http.Request, rt *route) (a admitted, code int) {
	if r.Method != http.MethodPost {
		return a, writeError(w, http.StatusMethodNotAllowed, "POST only")
	}
	if s.down.Load() {
		return a, writeError(w, http.StatusServiceUnavailable, "shutting down")
	}
	body, status, err := ReadBody(w, r, s.cfg.MaxBodyBytes, s.cfg.DefaultTimeout)
	if err != nil {
		return a, writeError(w, status, "%v", err)
	}
	req, g, err := rt.decode(body, s.cfg.MaxVertices)
	var dests []int
	if err == nil {
		dests, err = rt.dests(req.Dests, g.N)
	}
	if err == nil {
		a.h, err = Admit(g, dests, rt.distinct, req.Bits)
	}
	if err != nil {
		return a, writeError(w, http.StatusBadRequest, "%v", err)
	}
	if dests == nil {
		dests = make([]int, g.N)
		for d := range dests {
			dests[d] = d
		}
	}
	a.g, a.dests, a.timeout = g, dests, req.Timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	return a, 0
}

// Admit is the admission rule of a decoded graph, shared by every
// graph-carrying endpoint and by the router's front door, so the router
// refuses what a backend refuses: the graph must pass Validate, every
// destination must be in range (and, with distinct, appear once), and the
// machine word width must resolve (PickBits). It returns that width.
func Admit(g *graph.Graph, dests []int, distinct bool, bits uint) (uint, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	var seen map[int]bool
	if distinct {
		seen = make(map[int]bool, len(dests))
	}
	for i, d := range dests {
		if d < 0 || d >= g.N {
			return 0, fmt.Errorf("dest %d out of range [0,%d)", d, g.N)
		}
		if seen[d] {
			return 0, fmt.Errorf("duplicate dest %d at dests[%d]", d, i)
		}
		if distinct {
			seen[d] = true
		}
	}
	return PickBits(g, bits)
}

// shed answers 429 with Retry-After, the configured backoff rounded up to
// whole seconds.
func (s *Server) shed(w http.ResponseWriter, format string, args ...any) int {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	return writeError(w, http.StatusTooManyRequests, format, args...)
}

// enqueue queues j for a's graph and returns 0, or answers why it could
// not: the queue refuses only when it is full (429) or draining (503).
func (s *Server) enqueue(w http.ResponseWriter, j *job, a admitted) int {
	switch err := s.q.enqueue(j, a.g, a.h, s.cfg.MaxBatch); {
	case errors.Is(err, ErrOverloaded):
		return s.shed(w, "queue full; retry later")
	case err != nil:
		return writeError(w, http.StatusServiceUnavailable, "shutting down")
	}
	return 0
}

// fail answers a request that failed after admission, counting a
// deadline (504).
func (s *Server) fail(w http.ResponseWriter, status int, err error) int {
	if status == http.StatusGatewayTimeout {
		s.metrics.RecordDeadline()
	}
	return writeError(w, status, "%v", err)
}

// lease is a pooled session checked out for one batch, one /v1/allpairs
// sweep or one dynamic-graph session.
type lease struct {
	*core.Session
	hit bool // a recycled warm session
	// poisoned marks that a panic ran through the session: release closes
	// it instead of repooling it.
	poisoned bool
}

func (s *Server) checkout(g *graph.Graph, h uint) (lease, error) {
	sess, hit, err := s.pool.Get(g, h)
	return lease{Session: sess, hit: hit}, err
}

// guard runs fn on l under the panic contract: a panic fails only the
// work fn was doing. It is counted, comes back as fn's error and poisons
// l; the daemon and its other sessions keep serving.
func (s *Server) guard(l *lease, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			l.poisoned = true
			s.metrics.RecordPanic()
			err = fmt.Errorf("serve: solve panicked: %v", r)
		}
	}()
	return fn()
}

// release returns l to the pool, or closes it when a panic poisoned it.
func (s *Server) release(l *lease) {
	if l.poisoned {
		l.Close()
	} else {
		s.pool.Put(l.Session)
	}
}

// status is the HTTP status a solve on l that failed with err is
// reported with: 504 when its deadline or cancellation ended it, 500
// after a panic, 400 otherwise (a graph the session refused).
func (l *lease) status(err error) int {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case l.poisoned:
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// solveDelay holds the solve's device occupancy (Config.SolveDelay), or
// less if ctx ends first.
func (s *Server) solveDelay(ctx context.Context) error {
	if s.cfg.SolveDelay <= 0 {
		return nil
	}
	select {
	case <-time.After(s.cfg.SolveDelay):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sweepTotals is what one sweep's rows add up to.
type sweepTotals struct {
	rows, iterations int
	cost             ppa.Metrics
}

// streamSweep runs one sweep of a leased session over dests (SolveSweep
// for /v1/allpairs, ResolveSweep for a session generation), handing each
// row to emit as it lands and charging it to the service's solve counters
// and to the totals it returns. The test hook keeps its contract, firing
// before each destination's solve: the first here, each next one after
// the previous row is emitted.
func (s *Server) streamSweep(ctx context.Context, sweep func(context.Context, []int, func(*core.Result) error) error,
	dests []int, emit func(*core.Result) error) (t sweepTotals, err error) {
	if err := ctx.Err(); err != nil {
		return t, err
	}
	if s.hookBeforeSolve != nil {
		s.hookBeforeSolve(dests[0])
	}
	err = sweep(ctx, dests, func(r *core.Result) error {
		s.metrics.AddSolves(1, r.Metrics)
		t.cost = t.cost.Add(r.Metrics)
		t.iterations += r.Iterations
		if err := emit(r); err != nil {
			return err
		}
		t.rows++
		if s.hookBeforeSolve != nil && t.rows < len(dests) {
			s.hookBeforeSolve(dests[t.rows])
		}
		return nil
	})
	return t, err
}
