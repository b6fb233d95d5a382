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
	s.mux.HandleFunc("/v1/solve", s.graphRoute("/v1/solve", route{
		decode: decodeSolve, none: "dests must name at least one destination",
		max: cfg.MaxDests, limit: "server", timed: true,
	}, s.solve))
	// An omitted dests list sweeps every destination, as a session's
	// "dests": "all" does, under the same cap.
	s.mux.HandleFunc("/v1/allpairs", s.graphRoute("/v1/allpairs", route{
		decode: decodeSolve, max: cfg.MaxDests, limit: "server",
		maxAll: cfg.MaxDests, overAll: "all-pairs over %d dests exceeds server limit %d",
		distinct: true, timed: true,
	}, s.allPairs))
	s.mux.HandleFunc("POST /v1/session", s.graphRoute("/v1/session", route{
		decode: decodeSessionRoute, max: cfg.MaxSessionDests, limit: "session",
		maxAll: cfg.MaxDests, overAll: "all dests over %d vertices exceeds server limit %d",
		distinct: true,
	}, s.sessionCreate))
	s.mux.HandleFunc("POST /v1/session/{id}/update", s.sessionRoute("/v1/session/update", s.sessionUpdate))
	s.mux.HandleFunc("GET /v1/session/{id}/stream", s.sessionRoute("/v1/session/stream", s.sessionStream))
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.sessionRoute("/v1/session/delete", s.sessionDelete))
	s.mux.HandleFunc("/healthz", s.counted("/healthz", s.healthz))
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
	// Session runners finish their already-accepted updates and exit
	// (tracked by sessWG); the janitor stops.
	s.eachSession((*liveSession).beginClose)
	close(s.janitorStop)
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
		// Unblock any runner stuck on an unread stream.
		s.eachSession(func(ls *liveSession) { ls.cancel() })
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
	l, err := s.checkout(b.g, b.h)
	if err != nil {
		for _, j := range b.jobs {
			j.finish(jobDone{err: err, status: http.StatusBadRequest})
		}
		return
	}
	cache := make(map[int]*core.Result, len(b.jobs[0].dests))
	for _, j := range b.jobs {
		if l.poisoned {
			j.finish(jobDone{err: errors.New("serve: session poisoned by an earlier panic"), status: http.StatusInternalServerError})
			continue
		}
		if err := j.ctx.Err(); err != nil {
			j.finish(jobDone{err: err, status: http.StatusGatewayTimeout})
			continue
		}
		results := make([]*core.Result, 0, len(j.dests))
		var cost ppa.Metrics
		err := s.guard(&l, func() error {
			for _, d := range j.dests {
				r, ok := cache[d]
				if !ok {
					if s.hookBeforeSolve != nil {
						s.hookBeforeSolve(d)
					}
					var err error
					if r, err = l.SolveContext(j.ctx, d); err != nil {
						return err
					}
					if err := s.solveDelay(j.ctx); err != nil {
						return err
					}
					s.metrics.AddSolves(1, r.Metrics)
					cache[d] = r
				}
				// Every solve builds a fresh Result, so one handed to a
				// job (or shared by coalesced jobs) stays valid after the
				// session is repooled and solves again.
				results = append(results, r)
				cost = cost.Add(r.Metrics)
			}
			return nil
		})
		if err != nil {
			j.finish(jobDone{err: err, status: l.status(err)})
			continue
		}
		j.finish(jobDone{results: results, cost: cost, poolHit: l.hit, batched: len(b.jobs)})
	}
	s.release(&l)
}

// solve queues the admitted /v1/solve request, where it may join a
// queued batch for the same graph, and answers with the results the
// worker hands back.
func (s *Server) solve(w http.ResponseWriter, r *http.Request, a admitted) int {
	ctx, cancel := context.WithTimeout(r.Context(), a.timeout)
	defer cancel()
	j := &job{ctx: ctx, dests: a.dests, done: make(chan jobDone, 1)}
	if code := s.enqueue(w, j, a); code != 0 {
		return code
	}
	select {
	case d := <-j.done:
		if d.err != nil {
			return s.fail(w, d.status, d.err)
		}
		// The SolveResponse, appended straight from the results.
		body := appendSolveResponse(make([]byte, 0, 128+len(d.results)*(16*a.g.N+48)), a.g.N, a.h, d)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return http.StatusOK
	case <-ctx.Done():
		// The worker will observe the same context and abandon the job;
		// the buffered done channel lets it move on regardless.
		return s.fail(w, http.StatusGatewayTimeout, ctx.Err())
	}
}

// allPairs queues the admitted request as an exclusive streaming job,
// waits for a worker to lend it its slot, and runs the sweep on this
// goroutine, writing rows as NDJSON under the flush rule (ndjson.go). The
// status code is held back until the first row: an error before any row
// maps to the same HTTP statuses as /v1/solve, while an error mid-stream
// (the 200 is already on the wire) becomes a final ErrorResponse line
// with no done:true trailer.
func (s *Server) allPairs(w http.ResponseWriter, r *http.Request, a admitted) int {
	ctx, cancel := context.WithTimeout(r.Context(), a.timeout)
	defer cancel()
	j := &job{ctx: ctx, lend: make(chan struct{}), back: make(chan struct{})}
	if code := s.enqueue(w, j, a); code != 0 {
		return code
	}
	select {
	case <-j.lend:
	case <-ctx.Done():
		// The worker that dequeues the job sees the same context and keeps
		// its slot.
		return s.fail(w, http.StatusGatewayTimeout, ctx.Err())
	}

	st := newRowStream(w, 0)
	d := func() sweepDone {
		defer close(j.back)
		return s.sweep(ctx, st, a)
	}()
	switch {
	case d.err != nil && !d.streaming:
		return s.fail(w, d.status, d.err)
	case d.err != nil:
		if d.status == http.StatusGatewayTimeout {
			s.metrics.RecordDeadline()
		}
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

// sweepDone is how one /v1/allpairs sweep ended: its totals, and on
// failure the error, the status to report it with before the stream is
// committed, and whether it was.
type sweepDone struct {
	sweepTotals
	poolHit, streaming bool
	err                error
	status             int
}

// sweep runs one /v1/allpairs sweep on the handler goroutine, inside the
// worker slot the handler was lent: a single warm session sweeps a's
// destinations with one weight DMA, and each row is written to st as it
// lands, the response committed with the first. The panic and deadline
// contracts match runBatch. The session is back in the pool (or closed)
// when sweep returns.
func (s *Server) sweep(ctx context.Context, st *rowStream, a admitted) (d sweepDone) {
	l, err := s.checkout(a.g, a.h)
	if err != nil {
		return sweepDone{err: err, status: http.StatusBadRequest}
	}
	d.poolHit = l.hit
	d.err = s.guard(&l, func() (err error) {
		d.sweepTotals, err = s.streamSweep(ctx, l.SolveSweep, a.dests, func(r *core.Result) error {
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
				_ = st.line(AllPairsHeader{N: a.g.N, Bits: a.h}, false)
			}
			if err := st.row(nil, r); err != nil {
				return err
			}
			return s.solveDelay(ctx)
		})
		return err
	})
	s.release(&l)
	if d.err != nil {
		d.status = l.status(d.err)
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

// healthz keeps the load-balancer status-code contract (200 serving,
// 503 draining) and carries a small JSON body so a router can weight and
// evict on load — pool occupancy, queue depth, in-flight batches — not
// just liveness.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) int {
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
	return writeJSON(w, code, hs)
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
