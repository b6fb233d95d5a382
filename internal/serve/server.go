package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// Workers is the solver goroutine count (default GOMAXPROCS). Each
	// worker owns one session checkout at a time.
	Workers int
	// QueueDepth bounds the admission FIFO (default 64 batches); a full
	// queue answers 429.
	QueueDepth int
	// PoolCap bounds the idle warm sessions kept across requests
	// (default 64).
	PoolCap int
	// PhysicalSide, when nonzero, serves requests on block-mapped
	// virtualized sessions (core.Options.PhysicalSide): an n-vertex graph
	// whose n is a positive multiple of PhysicalSide simulates on a
	// PhysicalSide x PhysicalSide machine with k = n/PhysicalSide logical
	// PEs per physical PE. Graphs it cannot tile fall back to direct
	// execution. Answers are identical; reported machine metrics follow
	// the virtualization cost law (default 0 = direct).
	PhysicalSide int
	// MaxVertices is the largest graph accepted (default 512; hard cap
	// graph.MaxParseVertices). An n-vertex request simulates an n x n
	// machine, so this is the primary admission knob.
	MaxVertices int
	// MaxDests bounds the destination list length (default 1024).
	MaxDests int
	// MaxBatch bounds how many requests one session checkout may serve
	// (default 16).
	MaxBatch int
	// DefaultTimeout and MaxTimeout bound the per-request deadline
	// (defaults 30s and 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// SolveDelay, when nonzero, sleeps this long for every destination
	// actually solved (cache-shared destinations pay it once). It
	// emulates the wall-clock occupancy of a fixed-capacity PPA device,
	// so fleet-scaling benchmarks stay meaningful on hosts with fewer
	// cores than backends; production configs leave it zero.
	SolveDelay time.Duration
	// MaxBodyBytes bounds the request body (default 8 MiB).
	MaxBodyBytes int64
	// RetryAfter is the backoff hint sent with 429 (default 1s).
	RetryAfter time.Duration
	// MaxSessions bounds concurrent dynamic-graph sessions (default 16);
	// at the limit POST /v1/session answers 429.
	MaxSessions int
	// SessionIdleTimeout evicts a session with no update or stream
	// activity for this long (default 2m).
	SessionIdleTimeout time.Duration
	// MaxSessionDests bounds a session's explicit destination list
	// (default 16) — every accepted update re-solves the whole set. A
	// session created with "dests": "all" bypasses this list cap and is
	// bounded by MaxDests instead, like /v1/allpairs.
	MaxSessionDests int
	// SessionQueueDepth bounds a session's pending update batches
	// (default 32); a full queue answers 429.
	SessionQueueDepth int
	// MaxUpdateBatch bounds the edits in one update batch (default 4096).
	MaxUpdateBatch int
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PoolCap <= 0 {
		c.PoolCap = 64
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 512
	}
	if c.MaxVertices > graph.MaxParseVertices {
		c.MaxVertices = graph.MaxParseVertices
	}
	if c.MaxDests <= 0 {
		c.MaxDests = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = 2 * time.Minute
	}
	if c.MaxSessionDests <= 0 {
		c.MaxSessionDests = 16
	}
	if c.SessionQueueDepth <= 0 {
		c.SessionQueueDepth = 32
	}
	if c.MaxUpdateBatch <= 0 {
		c.MaxUpdateBatch = 4096
	}
}

// Server is the solver service. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg     Config
	pool    *Pool
	q       *queue
	metrics *Metrics
	mux     *http.ServeMux

	wg       sync.WaitGroup
	inflight atomic.Int64
	down     atomic.Bool

	// Dynamic-graph sessions (session.go).
	sessMu      sync.Mutex
	sessions    map[string]*liveSession
	sessWG      sync.WaitGroup
	janitorStop chan struct{}

	// hookBeforeSolve, when non-nil, runs before every destination solve;
	// tests use it to inject panics and verify request isolation.
	hookBeforeSolve func(dest int)
}

// New builds the service and starts its worker goroutines.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:         cfg,
		pool:        NewPool(cfg.PoolCap, 0, cfg.PhysicalSide),
		q:           newQueue(cfg.QueueDepth),
		metrics:     NewMetrics(),
		sessions:    make(map[string]*liveSession),
		janitorStop: make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/allpairs", s.handleAllPairs)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/session/{id}/update", s.handleSessionUpdate)
	s.mux.HandleFunc("GET /v1/session/{id}/stream", s.handleSessionStream)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.sessWG.Add(1)
	go s.sessionJanitor()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the service's aggregate counters (shared, live).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains: admission stops (new solves and sessions get 503),
// queued and in-flight batches complete, session runners finish their
// already-accepted updates and close their streams, workers exit. It
// returns ctx's error if the drain outlives it (hard-cancelling any
// session runner still blocked on an unread stream). Callers stop the
// http.Server first so no handler is left waiting on a worker that has
// already exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.down.Store(true)
	s.q.shutdown()
	s.beginDrainSessions()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.sessWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.pool.Close()
		return nil
	case <-ctx.Done():
		s.cancelSessions()
		return ctx.Err()
	}
}

// worker drains the batch FIFO until shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for b := range s.q.ch {
		s.q.take(b)
		s.inflight.Add(1)
		if j := b.jobs[0]; j.lend != nil {
			j.lendSlot()
		} else {
			s.runBatch(b)
		}
		s.inflight.Add(-1)
	}
}

// runBatch serves every job queued against one graph with one session
// checkout. Destinations shared between coalesced jobs are solved once.
// A panic while solving fails only the offending job; the session is
// assumed poisoned and dropped instead of repooled.
func (s *Server) runBatch(b *batch) {
	sess, hit, err := s.pool.Get(b.g, b.h)
	if err != nil {
		for _, j := range b.jobs {
			j.finish(jobDone{err: err, status: http.StatusBadRequest})
		}
		return
	}
	healthy := true
	cache := make(map[int]*core.Result, len(b.jobs[0].dests))
	for _, j := range b.jobs {
		if !healthy {
			j.finish(jobDone{err: errors.New("serve: session poisoned by an earlier panic"), status: http.StatusInternalServerError})
			continue
		}
		if err := j.ctx.Err(); err != nil {
			j.finish(jobDone{err: err, status: http.StatusGatewayTimeout})
			continue
		}
		results := make([]DestResult, 0, len(j.dests))
		var cost ppa.Metrics
		jerr := func() (jerr error) {
			defer func() {
				if r := recover(); r != nil {
					healthy = false
					s.metrics.RecordPanic()
					jerr = fmt.Errorf("serve: solve panicked: %v", r)
				}
			}()
			for _, d := range j.dests {
				r, ok := cache[d]
				if !ok {
					if s.hookBeforeSolve != nil {
						s.hookBeforeSolve(d)
					}
					var err error
					r, err = sess.SolveContext(j.ctx, d)
					if err != nil {
						return err
					}
					if s.cfg.SolveDelay > 0 {
						select {
						case <-time.After(s.cfg.SolveDelay):
						case <-j.ctx.Done():
							return j.ctx.Err()
						}
					}
					s.metrics.AddSolves(1, r.Metrics)
					cache[d] = r
				}
				results = append(results, toDestResult(r))
				cost = cost.Add(r.Metrics)
			}
			return nil
		}()
		switch {
		case jerr == nil:
			j.finish(jobDone{results: results, cost: cost, poolHit: hit, batched: len(b.jobs)})
		case errors.Is(jerr, context.Canceled) || errors.Is(jerr, context.DeadlineExceeded):
			j.finish(jobDone{err: jerr, status: http.StatusGatewayTimeout})
		case !healthy:
			j.finish(jobDone{err: jerr, status: http.StatusInternalServerError})
		default:
			j.finish(jobDone{err: jerr, status: http.StatusBadRequest})
		}
	}
	if healthy {
		s.pool.Put(sess)
	} else {
		sess.Close()
	}
}

func toDestResult(r *core.Result) DestResult {
	out := DestResult{
		Dest:       r.Dest,
		Dist:       make([]int64, len(r.Dist)),
		Next:       append([]int(nil), r.Next...),
		Iterations: r.Iterations,
	}
	for i, d := range r.Dist {
		if d == graph.NoEdge {
			out.Dist[i] = -1
		} else {
			out.Dist[i] = d
		}
	}
	return out
}

// handleSolve is POST /v1/solve.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := s.solve(w, r)
	s.metrics.RecordRequest("/v1/solve", code)
	s.metrics.ObserveLatency(time.Since(start))
}

// solve does the work and returns the status code it wrote.
func (s *Server) solve(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST only")
	}
	if s.down.Load() {
		return writeError(w, http.StatusServiceUnavailable, "shutting down")
	}
	body, status, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		return writeError(w, status, "%v", err)
	}
	req, err := DecodeSolveRequest(body)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	g, err := req.BuildGraph(s.cfg.MaxVertices)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	if err := g.Validate(); err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	if len(req.Dests) == 0 {
		return writeError(w, http.StatusBadRequest, "dests must name at least one destination")
	}
	if len(req.Dests) > s.cfg.MaxDests {
		return writeError(w, http.StatusBadRequest, "%d dests exceeds server limit %d", len(req.Dests), s.cfg.MaxDests)
	}
	for _, d := range req.Dests {
		if d < 0 || d >= g.N {
			return writeError(w, http.StatusBadRequest, "dest %d out of range [0,%d)", d, g.N)
		}
	}
	h, err := PickBits(g, req.Bits)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	j := &job{ctx: ctx, dests: req.Dests, done: make(chan jobDone, 1)}
	switch err := s.q.enqueue(j, g, h, s.cfg.MaxBatch); {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		return writeError(w, http.StatusTooManyRequests, "queue full; retry later")
	case errors.Is(err, ErrShuttingDown):
		return writeError(w, http.StatusServiceUnavailable, "shutting down")
	case err != nil:
		return writeError(w, http.StatusInternalServerError, "%v", err)
	}

	select {
	case d := <-j.done:
		if d.err != nil {
			if d.status == http.StatusGatewayTimeout {
				s.metrics.RecordDeadline()
			}
			return writeError(w, d.status, "%v", d.err)
		}
		return writeJSON(w, http.StatusOK, SolveResponse{
			N: g.N, Bits: h, Results: d.results, Cost: d.cost,
			PoolHit: d.poolHit, Batched: d.batched,
		})
	case <-ctx.Done():
		// The worker will observe the same context and abandon the job;
		// the buffered done channel lets it move on regardless.
		s.metrics.RecordDeadline()
		return writeError(w, http.StatusGatewayTimeout, "%v", ctx.Err())
	}
}

// handleAllPairs is POST /v1/allpairs.
func (s *Server) handleAllPairs(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := s.allPairs(w, r)
	s.metrics.RecordRequest("/v1/allpairs", code)
	s.metrics.ObserveLatency(time.Since(start))
}

// allPairs admits the request as an exclusive streaming job, waits for a
// worker to lend it its slot, and runs the sweep on this goroutine,
// writing rows as NDJSON under the flush rule (ndjson.go). The status
// code is held back until the first row: an error before any row maps to
// the same HTTP statuses as /v1/solve, while an error mid-stream (the 200
// is already on the wire) becomes a final ErrorResponse line with no
// done:true trailer.
func (s *Server) allPairs(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST only")
	}
	if s.down.Load() {
		return writeError(w, http.StatusServiceUnavailable, "shutting down")
	}
	body, status, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		return writeError(w, status, "%v", err)
	}
	sr, err := DecodeSolveRequest(body)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	req := AllPairsRequest(sr)
	g, err := req.BuildGraph(s.cfg.MaxVertices)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	if err := g.Validate(); err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	// An omitted dests list sweeps every destination; an explicit one
	// streams just that subset, in request order.
	if len(req.Dests) == 0 {
		if g.N > s.cfg.MaxDests {
			return writeError(w, http.StatusBadRequest, "all-pairs over %d dests exceeds server limit %d", g.N, s.cfg.MaxDests)
		}
	} else {
		if len(req.Dests) > s.cfg.MaxDests {
			return writeError(w, http.StatusBadRequest, "%d dests exceeds server limit %d", len(req.Dests), s.cfg.MaxDests)
		}
		seen := make(map[int]bool, len(req.Dests))
		for i, d := range req.Dests {
			if d < 0 || d >= g.N {
				return writeError(w, http.StatusBadRequest, "dest %d out of range [0,%d)", d, g.N)
			}
			if seen[d] {
				return writeError(w, http.StatusBadRequest, "duplicate dest %d at dests[%d]", d, i)
			}
			seen[d] = true
		}
	}
	h, err := PickBits(g, req.Bits)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	j := &job{ctx: ctx, dests: req.Dests, lend: make(chan struct{}), back: make(chan struct{})}
	switch err := s.q.enqueue(j, g, h, s.cfg.MaxBatch); {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		return writeError(w, http.StatusTooManyRequests, "queue full; retry later")
	case errors.Is(err, ErrShuttingDown):
		return writeError(w, http.StatusServiceUnavailable, "shutting down")
	case err != nil:
		return writeError(w, http.StatusInternalServerError, "%v", err)
	}
	select {
	case <-j.lend:
	case <-ctx.Done():
		// The worker that dequeues the job sees the same context and keeps
		// its slot.
		s.metrics.RecordDeadline()
		return writeError(w, http.StatusGatewayTimeout, "%v", ctx.Err())
	}

	st := newRowStream(w, 0)
	d := func() sweepDone {
		defer close(j.back)
		return s.sweep(ctx, st, g, h, req.Dests)
	}()
	if d.err != nil && d.status == http.StatusGatewayTimeout {
		s.metrics.RecordDeadline()
	}
	switch {
	case d.err != nil && !d.streaming:
		return writeError(w, d.status, "%v", d.err)
	case d.err != nil:
		if ctx.Err() != nil {
			// The request deadline is also the write deadline: give the
			// line that reports the expiry a moment of its own.
			_ = st.rc.SetWriteDeadline(time.Now().Add(errorLineGrace))
		}
		_ = st.line(ErrorResponse{Error: d.err.Error()}, true)
		return http.StatusOK
	}
	_ = st.line(AllPairsTrailer{
		Done: true, Rows: d.rows, Cost: d.cost,
		Iterations: d.iterations, PoolHit: d.poolHit,
	}, true)
	return http.StatusOK
}

// errorLineGrace is how long the in-band error line of a /v1/allpairs
// stream cut by its own deadline may take to write.
const errorLineGrace = 100 * time.Millisecond

// sweepDone is how one /v1/allpairs sweep ended: the rows written, their
// summed cost and DP rounds, and on failure the error, the status to
// report it with before the stream is committed, and whether it was.
type sweepDone struct {
	rows, iterations   int
	cost               ppa.Metrics
	poolHit, streaming bool
	err                error
	status             int
}

// sweep runs one /v1/allpairs sweep on the handler goroutine, inside the
// worker slot the handler was lent: a single warm session sweeps the
// destination set (every destination 0..n-1, or the requested subset)
// with one weight DMA, and each row is written to st as it lands, the
// response committed with the first. The panic and deadline contracts
// match runBatch: a panic fails this request and drops the session; ctx
// is observed between destinations and between DP iterations. The
// session is back in the pool (or closed) when sweep returns.
func (s *Server) sweep(ctx context.Context, st *rowStream, g *graph.Graph, h uint, dests []int) (d sweepDone) {
	sess, hit, err := s.pool.Get(g, h)
	if err != nil {
		return sweepDone{err: err, status: http.StatusBadRequest}
	}
	d.poolHit = hit
	if len(dests) == 0 {
		dests = make([]int, g.N)
		for i := range dests {
			dests[i] = i
		}
	}
	healthy := true
	d.err = func() (jerr error) {
		defer func() {
			if r := recover(); r != nil {
				healthy = false
				s.metrics.RecordPanic()
				jerr = fmt.Errorf("serve: solve panicked: %v", r)
			}
		}()
		if err := ctx.Err(); err != nil {
			return err
		}
		// The test hook fires before each destination's solve: the first
		// here, the next one after the previous row is written.
		if s.hookBeforeSolve != nil {
			s.hookBeforeSolve(dests[0])
		}
		return sess.SolveSweep(ctx, dests, func(r *core.Result) error {
			s.metrics.AddSolves(1, r.Metrics)
			d.cost = d.cost.Add(r.Metrics)
			d.iterations += r.Iterations
			if !d.streaming {
				// The first row commits the response. The request
				// deadline becomes the write deadline (where the writer
				// supports one), so a reader that stops reading holds the
				// session and the worker slot no longer than its request
				// may run.
				d.streaming = true
				st.w.Header().Set("Content-Type", "application/x-ndjson")
				st.w.WriteHeader(http.StatusOK)
				if dl, ok := ctx.Deadline(); ok {
					_ = st.rc.SetWriteDeadline(dl)
				}
				_ = st.line(AllPairsHeader{N: g.N, Bits: h}, false)
			}
			if err := st.row(nil, r); err != nil {
				return err
			}
			d.rows++
			if s.cfg.SolveDelay > 0 {
				select {
				case <-time.After(s.cfg.SolveDelay):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			if s.hookBeforeSolve != nil && d.rows < len(dests) {
				s.hookBeforeSolve(dests[d.rows])
			}
			return nil
		})
	}()
	if healthy {
		s.pool.Put(sess)
	} else {
		sess.Close()
	}
	switch {
	case d.err == nil:
	case errors.Is(d.err, context.Canceled) || errors.Is(d.err, context.DeadlineExceeded):
		d.status = http.StatusGatewayTimeout
	case !healthy:
		d.status = http.StatusInternalServerError
	default:
		d.status = http.StatusBadRequest
	}
	return d
}

// PickBits chooses the machine word width: an explicit request is taken
// as-is (width experiments), otherwise the smallest sufficient width is
// rounded up to a multiple of 8 so graphs of slightly different weight
// scales still share pooled sessions. Exported because the router tier
// must resolve the width the same way before fingerprinting — placement
// and result-cache keys are functions of (graph, h).
func PickBits(g *graph.Graph, reqBits uint) (uint, error) {
	if reqBits > 0 {
		if reqBits > ppa.MaxBits {
			return 0, fmt.Errorf("bits %d exceeds machine maximum %d", reqBits, ppa.MaxBits)
		}
		return reqBits, nil
	}
	need := g.BitsNeeded()
	h := (need + 7) / 8 * 8
	if h > ppa.MaxBits {
		h = ppa.MaxBits
	}
	if h < need {
		return 0, fmt.Errorf("graph needs %d-bit words, machine maximum is %d", need, ppa.MaxBits)
	}
	return h, nil
}

// handleHealthz keeps the load-balancer status-code contract (200
// serving, 503 draining) and carries a small JSON body so a router can
// weight and evict on load — pool occupancy, queue depth, in-flight
// batches — not just liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hs := HealthStatus{
		Status:          "ok",
		PoolIdle:        s.pool.Stats().Idle,
		QueueDepth:      s.q.depth(),
		InflightBatches: s.inflight.Load(),
		Sessions:        s.sessionCount(),
	}
	code := http.StatusOK
	if s.down.Load() {
		hs.Status = "draining"
		hs.Draining = true
		code = http.StatusServiceUnavailable
	}
	s.metrics.RecordRequest("/healthz", code)
	writeJSON(w, code, hs)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.RecordRequest("/metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	batches, coalesced := s.q.stats()
	s.metrics.WritePrometheus(w, s.pool.Stats(), s.q.depth(), batches, coalesced)
	fmt.Fprintf(w, "ppaserved_inflight_batches %d\n", s.inflight.Load())
	fmt.Fprintf(w, "# HELP ppaserved_sessions Live dynamic-graph sessions.\n")
	fmt.Fprintf(w, "# TYPE ppaserved_sessions gauge\n")
	fmt.Fprintf(w, "ppaserved_sessions %d\n", s.sessionCount())
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	return status
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) int {
	return writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
