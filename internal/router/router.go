// Package router is the fleet front door: a consistent-hash routing
// tier that spreads solve traffic across N ppaserved backends while
// keeping it graph-affine, plus a front-door result cache.
//
// The server tier's economics (internal/serve) are all about reuse: a
// warm session answers in under a millisecond while a cold build plus
// first solve costs several times that, and micro-batching coalesces
// concurrent requests for the same graph into one checkout. Those wins
// only survive scale-out if identical graphs keep landing on the same
// process. The router therefore places each request by the same
// graph.Fingerprint the backends batch on, on a consistent-hash ring
// with virtual nodes: placement is deterministic across restarts, and a
// membership change only moves the keys of the member that changed.
//
// Above placement sits a front-door LRU result cache keyed by the
// request's exact bytes (the raw graph or gen value, the requested width
// and the destinations). The paper's DP is deterministic, so a result is
// a pure function of those bytes: the cache can never serve a stale
// answer, capacity is the only policy, and a hit is answered without
// decoding the graph. Only a miss builds the graph, to place the request
// and to refuse what a backend would refuse: it applies the backends'
// own admission rule (serve.Admit), not a copy of it. Concurrent misses for
// the same key collapse into one upstream call (single flight).
//
// Around both sits the fleet envelope: active health checks against the
// backends' /healthz (evicting on failure or a draining signal,
// re-admitting on recovery, deterministically rebalancing the ring on
// every membership change), bounded retry/failover along the ring
// order for transport failures and 5xx, pass-through of 429/Retry-After
// and deadlines, and a hand-rendered Prometheus /metrics surface.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppamcp/internal/graph"
	"ppamcp/internal/serve"
)

// Config tunes the router; zero values select the documented defaults.
type Config struct {
	// Backends lists the ppaserved base URLs fronted by this router
	// (e.g. "http://10.0.0.1:8080"). At least one is required.
	Backends []string
	// VNodes is the virtual node count per backend on the hash ring
	// (default 64).
	VNodes int
	// HealthInterval is the active health-check period (default 2s);
	// HealthTimeout bounds each probe (default 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// EvictAfter is the consecutive probe failures that evict a backend
	// from the ring (default 2). A backend reporting draining is evicted
	// immediately; one healthy probe re-admits.
	EvictAfter int
	// RetryBudget is the number of additional backends tried (in ring
	// order) after the primary fails with a transport error or a
	// retryable 5xx (default 2). 429 and 504 are never retried — they
	// pass through with their headers.
	RetryBudget int
	// CacheEntries / CacheBytes bound the front-door result cache
	// (defaults 4096 entries, 64 MiB). CacheEntries < 0 disables it.
	CacheEntries int
	CacheBytes   int64
	// MaxVertices and MaxBodyBytes mirror the backend admission bounds
	// (defaults 512 and 8 MiB) so oversized requests die at the front
	// door instead of fanning out.
	MaxVertices  int
	MaxBodyBytes int64
	// MaxResponseBytes bounds a buffered upstream response body
	// (default 32 MiB); a longer one is answered with 502 and not cached.
	MaxResponseBytes int64
	// DefaultTimeout and MaxTimeout bound the per-request deadline the
	// router enforces around the whole forwarding attempt chain
	// (defaults 30s and 2m, matching the backends).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Client overrides the upstream HTTP client (tests); nil builds one
	// with per-backend connection pooling.
	Client *http.Client
}

func (c *Config) fillDefaults() {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 2
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	} else if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 512
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxResponseBytes <= 0 {
		c.MaxResponseBytes = 32 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
}

// backendState is the router's live view of one fleet member. Guarded
// by Router.mu.
type backendState struct {
	url     string
	healthy bool
	fails   int // consecutive failed probes
	last    serve.HealthStatus
	lastErr string
}

// Router is the routing tier. Create with New, mount Handler, stop with
// Shutdown.
type Router struct {
	cfg        Config
	client     *http.Client
	ownsClient bool // client was built here, not passed in Config.Client
	metrics    *Metrics
	cache      *Cache // nil when disabled
	flights    *flightGroup
	mux        *http.ServeMux

	mu       sync.Mutex
	backends map[string]*backendState
	ring     *Ring // rebuilt on every membership change; healthy members only

	down    atomic.Bool
	stop    chan struct{}
	monitor sync.WaitGroup
}

// New builds the router and starts its health monitor.
func New(cfg Config) (*Router, error) {
	cfg.fillDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: need at least one backend")
	}
	rt := &Router{
		cfg:      cfg,
		client:   cfg.Client,
		metrics:  NewMetrics(),
		flights:  newFlightGroup(),
		backends: make(map[string]*backendState),
		stop:     make(chan struct{}),
	}
	if cfg.CacheEntries > 0 {
		rt.cache = NewCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	if rt.client == nil {
		rt.ownsClient = true
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	for _, b := range cfg.Backends {
		u := strings.TrimRight(strings.TrimSpace(b), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if _, dup := rt.backends[u]; dup {
			continue
		}
		// Optimistic start: everything is in the ring until a probe says
		// otherwise; the monitor's first sweep runs immediately.
		rt.backends[u] = &backendState{url: u, healthy: true}
	}
	if len(rt.backends) == 0 {
		return nil, errors.New("router: backend list is empty after normalization")
	}
	rt.rebuildRingLocked()

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)

	rt.monitor.Add(1)
	go rt.monitorLoop()
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics returns the router's aggregate counters (shared, live).
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// CacheStats returns the front-door cache snapshot (zero when disabled)
// and the single-flight collapse count.
func (rt *Router) CacheStats() (CacheStats, int64) {
	var cs CacheStats
	if rt.cache != nil {
		cs = rt.cache.Stats()
	}
	return cs, rt.flights.Collapsed()
}

// Shutdown stops the health monitor and flips the surface to 503.
// In-flight forwards complete under their own deadlines; callers stop
// the http.Server around the handler to drain them. Once the monitor has
// stopped, the idle upstream connections of a client the router built
// are closed. Among them are connections dialed for a request that
// another connection then served: a backend sees those as never used
// (http.StateNew), and its http.Server.Shutdown would otherwise wait
// about 5 s before counting them idle.
func (rt *Router) Shutdown(ctx context.Context) error {
	if rt.down.CompareAndSwap(false, true) {
		close(rt.stop)
	}
	done := make(chan struct{})
	go func() {
		rt.monitor.Wait()
		close(done)
	}()
	select {
	case <-done:
		if rt.ownsClient {
			rt.client.CloseIdleConnections()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// rebuildRingLocked rebuilds the ring from the healthy member set; when
// everything is evicted it falls back to all members — trying a backend
// the prober dislikes beats refusing every request outright.
func (rt *Router) rebuildRingLocked() {
	healthy := make([]string, 0, len(rt.backends))
	all := make([]string, 0, len(rt.backends))
	for u, b := range rt.backends {
		all = append(all, u)
		if b.healthy {
			healthy = append(healthy, u)
		}
	}
	if len(healthy) == 0 {
		healthy = all
	}
	rt.ring = NewRing(healthy, rt.cfg.VNodes)
}

// Fleet returns the router's current view of every configured backend,
// sorted by URL.
func (rt *Router) Fleet() []BackendHealth {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]BackendHealth, 0, len(rt.backends))
	for _, b := range rt.backends {
		out = append(out, BackendHealth{URL: b.url, Healthy: b.healthy, Last: b.last})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// monitorLoop sweeps /healthz on every backend each HealthInterval,
// starting immediately.
func (rt *Router) monitorLoop() {
	defer rt.monitor.Done()
	rt.CheckNow(context.Background())
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.CheckNow(context.Background())
		}
	}
}

// CheckNow probes every backend's /healthz once, applying eviction and
// re-admission, and rebalances the ring if membership changed. Exported
// so tests and operators (via the daemon) can force a sweep.
func (rt *Router) CheckNow(ctx context.Context) {
	rt.mu.Lock()
	urls := make([]string, 0, len(rt.backends))
	for u := range rt.backends {
		urls = append(urls, u)
	}
	rt.mu.Unlock()
	sort.Strings(urls)

	changed := false
	for _, u := range urls {
		hs, code, err := rt.probe(ctx, u)
		rt.mu.Lock()
		b := rt.backends[u]
		if b == nil { // membership is static today, but stay defensive
			rt.mu.Unlock()
			continue
		}
		was := b.healthy
		switch {
		case err != nil:
			b.fails++
			b.lastErr = err.Error()
			if b.fails >= rt.cfg.EvictAfter {
				b.healthy = false
			}
		case code != http.StatusOK || hs.Draining:
			// A draining (or otherwise refusing) backend asked to be
			// drained: evict immediately, don't wait out the failure
			// budget.
			b.fails = rt.cfg.EvictAfter
			b.healthy = false
			b.last = hs
			b.lastErr = fmt.Sprintf("healthz status %d", code)
		default:
			b.fails = 0
			b.healthy = true
			b.last = hs
			b.lastErr = ""
		}
		if b.healthy != was {
			changed = true
		}
		rt.mu.Unlock()
	}
	if changed {
		rt.mu.Lock()
		rt.rebuildRingLocked()
		rt.mu.Unlock()
	}
}

// probe fetches one backend's /healthz. A non-JSON 200 body (an older
// backend) still counts as healthy with zeroed gauges.
func (rt *Router) probe(ctx context.Context, backend string) (serve.HealthStatus, int, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return serve.HealthStatus{}, 0, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return serve.HealthStatus{}, 0, err
	}
	defer resp.Body.Close()
	var hs serve.HealthStatus
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if jsonErr := json.Unmarshal(data, &hs); jsonErr != nil && resp.StatusCode != http.StatusOK {
		hs.Draining = true
	}
	return hs, resp.StatusCode, nil
}

// markBackendFailed records a passive failure signal (a transport error
// during forwarding): eviction converges faster than the next sweep.
func (rt *Router) markBackendFailed(backend string, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := rt.backends[backend]
	if b == nil {
		return
	}
	b.fails++
	b.lastErr = err.Error()
	if b.healthy && b.fails >= rt.cfg.EvictAfter {
		b.healthy = false
		rt.rebuildRingLocked()
	}
}

// sequence returns the ring-ordered failover chain for key: the owner
// plus up to RetryBudget successors.
func (rt *Router) sequence(key uint64) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.Sequence(key, rt.cfg.RetryBudget+1)
}

// retryable reports whether an upstream answer may be retried on the
// next ring member: transport failures and 5xx from a dying or
// overloaded process (502/503) or an isolated solver panic (500).
// Solves are pure, so re-execution elsewhere is always safe; the budget
// bounds the blast radius of a deterministic failure. 429 carries
// backpressure the client must see, and 504 means the deadline is
// already spent — neither is retried.
func retryable(u *upstream) bool {
	if u.err != nil && u.status == 0 {
		return true
	}
	switch u.status {
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// forward sends body along the failover chain for fp and returns the
// first non-retryable answer (or the last error).
func (rt *Router) forward(ctx context.Context, body []byte, fp uint64) *upstream {
	seq := rt.sequence(fp)
	if len(seq) == 0 {
		return &upstream{status: 0, err: errors.New("router: no backends in ring")}
	}
	var last *upstream
	for i, backend := range seq {
		if err := ctx.Err(); err != nil {
			return &upstream{status: http.StatusGatewayTimeout, err: err}
		}
		u := rt.sendOne(ctx, backend, body)
		rt.metrics.RecordBackend(backend, u.status, u.latency, i > 0)
		if u.err != nil && u.status == 0 {
			rt.markBackendFailed(backend, u.err)
		}
		if retryable(u) && i < len(seq)-1 {
			last = u
			continue
		}
		return u
	}
	return last
}

// sendOne performs one upstream exchange.
func (rt *Router) sendOne(ctx context.Context, backend string, body []byte) *upstream {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, backend+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return &upstream{backend: backend, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := rt.client.Do(req)
	lat := time.Since(t0)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return &upstream{backend: backend, status: http.StatusGatewayTimeout, err: ctxErr, latency: lat}
		}
		return &upstream{backend: backend, err: err, latency: lat}
	}
	defer resp.Body.Close()
	// One byte past the bound tells a body that fits from one cut short.
	data, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxResponseBytes+1))
	lat = time.Since(t0)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return &upstream{backend: backend, status: http.StatusGatewayTimeout, err: ctxErr, latency: lat}
		}
		return &upstream{backend: backend, err: err, latency: lat}
	}
	return &upstream{
		backend:    backend,
		status:     resp.StatusCode,
		body:       data,
		retryAfter: resp.Header.Get("Retry-After"),
		latency:    lat,
	}
}

// handleSolve is POST /v1/solve: try the cache, admit the miss,
// single-flight it, forward with failover, pass the answer through.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	code := rt.solve(w, r)
	rt.metrics.RecordRequest("/v1/solve", code)
}

func (rt *Router) solve(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return rt.writeError(w, http.StatusMethodNotAllowed, "POST only")
	}
	if rt.down.Load() {
		return rt.writeError(w, http.StatusServiceUnavailable, "shutting down")
	}
	raw, status, err := serve.ReadBody(w, r, rt.cfg.MaxBodyBytes, rt.cfg.DefaultTimeout)
	if err != nil {
		return rt.writeError(w, status, "%v", err)
	}
	req, err := serve.DecodeSolveRequest(raw)
	if err != nil {
		return rt.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if len(req.Dests) == 0 {
		return rt.writeError(w, http.StatusBadRequest, "dests must name at least one destination")
	}
	// A cached 200 for these exact bytes already proves the graph was
	// admitted and every dest in range.
	key := requestKey(&req)
	if rt.cache != nil {
		if body, ok := rt.cache.Get(key); ok {
			rt.metrics.RecordCacheServed()
			return writeBody(w, http.StatusOK, body, "hit", "")
		}
	}
	fp, err := rt.admit(&req)
	if err != nil {
		return rt.writeError(w, http.StatusBadRequest, "%v", err)
	}

	// Small grace beyond the backend's own deadline so its 504 (and
	// Retry-After semantics) reach the client instead of the router
	// cutting the connection first.
	timeout := req.Timeout(rt.cfg.DefaultTimeout, rt.cfg.MaxTimeout)
	ctx, cancel := context.WithTimeout(r.Context(), timeout+250*time.Millisecond)
	defer cancel()

	res, shared, err := rt.flights.Do(ctx, key, func() *upstream {
		return rt.forward(ctx, raw, fp)
	})
	if err != nil { // follower deadline while waiting on the leader
		rt.metrics.RecordDeadline()
		return rt.writeError(w, http.StatusGatewayTimeout, "%v", err)
	}
	if res.err != nil && res.status == 0 {
		return rt.writeError(w, http.StatusBadGateway, "no backend answered: %v", res.err)
	}
	if res.status == http.StatusGatewayTimeout || (res.err != nil && errors.Is(res.err, context.DeadlineExceeded)) {
		rt.metrics.RecordDeadline()
	}
	if int64(len(res.body)) > rt.cfg.MaxResponseBytes {
		return rt.writeError(w, http.StatusBadGateway, "%s answered more than %d bytes", res.backend, rt.cfg.MaxResponseBytes)
	}
	src := "miss"
	if shared {
		rt.metrics.RecordCacheServed()
		src = "collapsed"
	} else if res.status == http.StatusOK && rt.cache != nil {
		rt.cache.Put(key, res.body)
	}
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	return writeBody(w, res.status, res.body, src, res.backend)
}

// admit builds a cache-missing request's graph under the backends' own
// bound (MaxVertices) and admission rule (serve.Admit), so a request they
// would refuse dies here instead of fanning out, and returns the
// fingerprint that places it on the ring.
func (rt *Router) admit(req *serve.SolveRequest) (uint64, error) {
	g, err := req.BuildGraph(rt.cfg.MaxVertices)
	if err != nil {
		return 0, err
	}
	h, err := serve.Admit(g, req.Dests, false, req.Bits)
	if err != nil {
		return 0, err
	}
	return graph.Fingerprint(g, h), nil
}

// RouterHealth is the body of the router's own GET /healthz.
type RouterHealth struct {
	Status          string `json:"status"`
	HealthyBackends int    `json:"healthy_backends"`
	Backends        int    `json:"backends"`
	Draining        bool   `json:"draining"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fleet := rt.Fleet()
	h := RouterHealth{Status: "ok", Backends: len(fleet)}
	for _, b := range fleet {
		if b.Healthy {
			h.HealthyBackends++
		}
	}
	code := http.StatusOK
	switch {
	case rt.down.Load():
		h.Status, h.Draining = "draining", true
		code = http.StatusServiceUnavailable
	case h.HealthyBackends == 0:
		h.Status = "no healthy backends"
		code = http.StatusServiceUnavailable
	}
	rt.metrics.RecordRequest("/healthz", code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.metrics.RecordRequest("/metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	cs, collapsed := rt.CacheStats()
	rt.metrics.WritePrometheus(w, rt.Fleet(), cs, collapsed)
}

// writeBody relays an upstream (or cached) response body verbatim,
// annotating where it came from: X-Ppa-Cache is hit/miss/collapsed and
// X-Ppa-Backend names the serving backend (empty for cache hits).
func writeBody(w http.ResponseWriter, status int, body []byte, cacheSrc, backend string) int {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ppa-Cache", cacheSrc)
	if backend != "" {
		w.Header().Set("X-Ppa-Backend", backend)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
	return status
}

func (rt *Router) writeError(w http.ResponseWriter, status int, format string, args ...any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: fmt.Sprintf(format, args...)})
	return status
}
