package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ppamcp/internal/ppa"
)

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram; +Inf is implicit. Warm solves land in the low-millisecond
// buckets, cold machine builds in the tens of milliseconds.
var latencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Metrics aggregates the service's observable behaviour. All methods are
// safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	requests map[string]map[int]int64 // path -> status -> count

	bucketCounts []int64
	latSum       float64
	latCount     int64

	solves   int64
	panics   int64
	deadline int64 // requests that died on their deadline
	cost     ppa.Metrics
}

// NewMetrics returns an empty aggregate.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:     make(map[string]map[int]int64),
		bucketCounts: make([]int64, len(latencyBuckets)+1),
	}
}

// RecordRequest counts one HTTP request by path and status code.
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

// ObserveLatency adds one /v1/solve or /v1/allpairs request duration to
// the histogram (for /v1/allpairs, until its stream's last line).
func (m *Metrics) ObserveLatency(d time.Duration) {
	s := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.SearchFloat64s(latencyBuckets, s)
	m.bucketCounts[i]++
	m.latSum += s
	m.latCount++
}

// AddSolves charges completed destination solves and their machine cost
// (the paper's counters: bus cycles, wired-OR cycles, PE ops, ...).
func (m *Metrics) AddSolves(n int64, cost ppa.Metrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solves += n
	m.cost = m.cost.Add(cost)
}

// RecordPanic counts one isolated request panic.
func (m *Metrics) RecordPanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// RecordDeadline counts one request abandoned at its deadline.
func (m *Metrics) RecordDeadline() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deadline++
}

// WritePrometheus renders the aggregate in Prometheus text exposition
// format, folding in the point-in-time gauges passed by the server.
func (m *Metrics) WritePrometheus(w io.Writer, pool PoolStats, queueDepth int, batches, coalesced int64) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP ppaserved_requests_total HTTP requests by path and status.\n")
	fmt.Fprintf(w, "# TYPE ppaserved_requests_total counter\n")
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
			fmt.Fprintf(w, "ppaserved_requests_total{path=%q,code=\"%d\"} %d\n", p, c, m.requests[p][c])
		}
	}

	fmt.Fprintf(w, "# HELP ppaserved_solve_latency_seconds /v1/solve and /v1/allpairs request latency.\n")
	fmt.Fprintf(w, "# TYPE ppaserved_solve_latency_seconds histogram\n")
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += m.bucketCounts[i]
		fmt.Fprintf(w, "ppaserved_solve_latency_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += m.bucketCounts[len(latencyBuckets)]
	fmt.Fprintf(w, "ppaserved_solve_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "ppaserved_solve_latency_seconds_sum %g\n", m.latSum)
	fmt.Fprintf(w, "ppaserved_solve_latency_seconds_count %d\n", m.latCount)

	fmt.Fprintf(w, "# HELP ppaserved_session_pool Session pool checkouts.\n")
	fmt.Fprintf(w, "# TYPE ppaserved_session_pool_hits_total counter\n")
	fmt.Fprintf(w, "ppaserved_session_pool_hits_total %d\n", pool.Hits)
	fmt.Fprintf(w, "ppaserved_session_pool_misses_total %d\n", pool.Misses)
	fmt.Fprintf(w, "ppaserved_session_pool_discards_total %d\n", pool.Discards)
	fmt.Fprintf(w, "ppaserved_session_pool_idle %d\n", pool.Idle)

	fmt.Fprintf(w, "# HELP ppaserved_queue_depth Batches waiting for a worker.\n")
	fmt.Fprintf(w, "# TYPE ppaserved_queue_depth gauge\n")
	fmt.Fprintf(w, "ppaserved_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "ppaserved_batches_total %d\n", batches)
	fmt.Fprintf(w, "ppaserved_coalesced_jobs_total %d\n", coalesced)

	fmt.Fprintf(w, "# HELP ppaserved_solves_total Destination solves completed.\n")
	fmt.Fprintf(w, "ppaserved_solves_total %d\n", m.solves)
	fmt.Fprintf(w, "ppaserved_request_panics_total %d\n", m.panics)
	fmt.Fprintf(w, "ppaserved_deadline_exceeded_total %d\n", m.deadline)

	fmt.Fprintf(w, "# HELP ppaserved_machine The paper's cost model, aggregated over all solves.\n")
	fmt.Fprintf(w, "ppaserved_machine_bus_cycles_total %d\n", m.cost.BusCycles)
	fmt.Fprintf(w, "ppaserved_machine_wired_or_cycles_total %d\n", m.cost.WiredOrCycles)
	fmt.Fprintf(w, "ppaserved_machine_global_or_ops_total %d\n", m.cost.GlobalOrOps)
	fmt.Fprintf(w, "ppaserved_machine_pe_ops_total %d\n", m.cost.PEOps)
	fmt.Fprintf(w, "ppaserved_machine_instructions_total %d\n", m.cost.Instructions)
	fmt.Fprintf(w, "ppaserved_machine_comm_cycles_total %d\n", m.cost.CommCycles())
}
