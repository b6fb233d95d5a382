package router

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ppamcp/internal/serve"
)

// Metrics aggregates the router's observable behaviour in the style of
// internal/serve/metrics.go: hand-rendered Prometheus text, no
// dependencies. All methods are safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	requests map[string]map[int]int64 // path -> status -> count

	backends map[string]*backendCounters // url -> upstream exchange counters

	cacheServed int64 // requests answered from the front-door cache
	failovers   int64 // upstream attempts beyond a request's first backend
	deadline    int64 // requests that died on their deadline inside the router
}

type backendCounters struct {
	requests map[int]int64 // status (0 = transport failure) -> count
	latSum   float64
	latCount int64
}

// NewMetrics returns an empty aggregate.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: make(map[string]map[int]int64),
		backends: make(map[string]*backendCounters),
	}
}

// RecordRequest counts one client-facing HTTP request by path and status.
func (m *Metrics) RecordRequest(path string, status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[path]
	if byCode == nil {
		byCode = make(map[int]int64)
		m.requests[path] = byCode
	}
	byCode[status]++
}

// RecordBackend counts one upstream exchange with backend: the status it
// answered (0 for a transport failure), how long it took, and whether it
// was a failover attempt (not the request's ring-primary try).
func (m *Metrics) RecordBackend(backend string, status int, d time.Duration, failover bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bc := m.backends[backend]
	if bc == nil {
		bc = &backendCounters{requests: make(map[int]int64)}
		m.backends[backend] = bc
	}
	bc.requests[status]++
	bc.latSum += d.Seconds()
	bc.latCount++
	if failover {
		m.failovers++
	}
}

// RecordCacheServed counts one request answered without an upstream call.
func (m *Metrics) RecordCacheServed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheServed++
}

// RecordDeadline counts one request abandoned at its deadline.
func (m *Metrics) RecordDeadline() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deadline++
}

// BackendHealth is the point-in-time view of one fleet member folded
// into the render (membership, health, last reported load).
type BackendHealth struct {
	URL     string
	Healthy bool
	Last    serve.HealthStatus
}

// WritePrometheus renders the aggregate plus the point-in-time gauges
// the router passes in: fleet membership/health and cache occupancy.
func (m *Metrics) WritePrometheus(w io.Writer, fleet []BackendHealth, cache CacheStats, collapsed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP pparouter_requests_total HTTP requests by path and status.\n")
	fmt.Fprintf(w, "# TYPE pparouter_requests_total counter\n")
	paths := make([]string, 0, len(m.requests))
	for p := range m.requests {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		codes := make([]int, 0, len(m.requests[p]))
		for c := range m.requests[p] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "pparouter_requests_total{path=%q,code=\"%d\"} %d\n", p, c, m.requests[p][c])
		}
	}

	fmt.Fprintf(w, "# HELP pparouter_backend_requests_total Upstream exchanges by backend and status (code 0 = transport failure).\n")
	fmt.Fprintf(w, "# TYPE pparouter_backend_requests_total counter\n")
	urls := make([]string, 0, len(m.backends))
	for u := range m.backends {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		bc := m.backends[u]
		codes := make([]int, 0, len(bc.requests))
		for c := range bc.requests {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "pparouter_backend_requests_total{backend=%q,code=\"%d\"} %d\n", u, c, bc.requests[c])
		}
	}
	fmt.Fprintf(w, "# HELP pparouter_backend_latency_seconds Upstream exchange latency by backend.\n")
	for _, u := range urls {
		bc := m.backends[u]
		fmt.Fprintf(w, "pparouter_backend_latency_seconds_sum{backend=%q} %g\n", u, bc.latSum)
		fmt.Fprintf(w, "pparouter_backend_latency_seconds_count{backend=%q} %d\n", u, bc.latCount)
	}

	fmt.Fprintf(w, "# HELP pparouter_ring_backend_healthy Ring membership: 1 healthy, 0 evicted.\n")
	fmt.Fprintf(w, "# TYPE pparouter_ring_backend_healthy gauge\n")
	healthy := 0
	for _, b := range fleet {
		v := 0
		if b.Healthy {
			v = 1
			healthy++
		}
		fmt.Fprintf(w, "pparouter_ring_backend_healthy{backend=%q} %d\n", b.URL, v)
	}
	fmt.Fprintf(w, "pparouter_ring_size %d\n", healthy)
	fmt.Fprintf(w, "pparouter_ring_members %d\n", len(fleet))

	// Load gauges relayed from each backend's /healthz body: the fleet's
	// queue depths and pool occupancy in one scrape, per backend.
	fmt.Fprintf(w, "# HELP pparouter_backend_queue_depth Admission queue depth last reported by the backend's /healthz.\n")
	fmt.Fprintf(w, "# TYPE pparouter_backend_queue_depth gauge\n")
	for _, b := range fleet {
		fmt.Fprintf(w, "pparouter_backend_queue_depth{backend=%q} %d\n", b.URL, b.Last.QueueDepth)
	}
	fmt.Fprintf(w, "# HELP pparouter_backend_pool_idle Warm sessions parked in the backend's pool, per its /healthz.\n")
	fmt.Fprintf(w, "# TYPE pparouter_backend_pool_idle gauge\n")
	for _, b := range fleet {
		fmt.Fprintf(w, "pparouter_backend_pool_idle{backend=%q} %d\n", b.URL, b.Last.PoolIdle)
	}
	fmt.Fprintf(w, "# HELP pparouter_backend_inflight_batches Batches being solved right now, per the backend's /healthz.\n")
	fmt.Fprintf(w, "# TYPE pparouter_backend_inflight_batches gauge\n")
	for _, b := range fleet {
		fmt.Fprintf(w, "pparouter_backend_inflight_batches{backend=%q} %d\n", b.URL, b.Last.InflightBatches)
	}
	fmt.Fprintf(w, "# HELP pparouter_backend_sessions Live dynamic-graph sessions, per the backend's /healthz.\n")
	fmt.Fprintf(w, "# TYPE pparouter_backend_sessions gauge\n")
	for _, b := range fleet {
		fmt.Fprintf(w, "pparouter_backend_sessions{backend=%q} %d\n", b.URL, b.Last.Sessions)
	}

	fmt.Fprintf(w, "# HELP pparouter_cache Front-door result cache (LRU keyed by exact request bytes; a refused cache miss counts as a miss).\n")
	fmt.Fprintf(w, "pparouter_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "pparouter_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "pparouter_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(w, "pparouter_cache_entries %d\n", cache.Entries)
	fmt.Fprintf(w, "pparouter_cache_bytes %d\n", cache.Bytes)
	ratio := 0.0
	if total := cache.Hits + cache.Misses; total > 0 {
		ratio = float64(cache.Hits) / float64(total)
	}
	fmt.Fprintf(w, "pparouter_cache_hit_ratio %g\n", ratio)
	fmt.Fprintf(w, "pparouter_singleflight_collapsed_total %d\n", collapsed)

	fmt.Fprintf(w, "pparouter_cache_served_total %d\n", m.cacheServed)
	fmt.Fprintf(w, "pparouter_failovers_total %d\n", m.failovers)
	fmt.Fprintf(w, "pparouter_deadline_exceeded_total %d\n", m.deadline)
}
