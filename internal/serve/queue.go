package serve

import (
	"context"
	"errors"
	"sync"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// Admission errors; the handler maps them to 429 and 503.
var (
	ErrOverloaded   = errors.New("serve: queue full")
	ErrShuttingDown = errors.New("serve: shutting down")
)

// job is one request's unit of solver work. The worker answers on done
// (buffered, so a handler that gave up on its deadline never blocks the
// worker).
type job struct {
	ctx   context.Context
	dests []int
	done  chan jobDone
	// lend, when non-nil, marks a streaming all-pairs job, which its
	// handler sweeps on its own goroutine (Server.allPairs): the worker
	// that dequeues the job lends the handler its slot with one send on
	// lend, then parks until the handler closes back, so Workers bounds
	// solves and sweeps together. Streaming jobs never coalesce: one sweep
	// already serves every destination off one checkout, and sharing it
	// would interleave two streams' solve order.
	lend, back chan struct{}
}

type jobDone struct {
	results []*core.Result
	cost    ppa.Metrics
	poolHit bool
	batched int
	err     error
	status  int // HTTP status to report err with
}

func (j *job) finish(d jobDone) { j.done <- d }

// lendSlot hands the calling worker's slot to the handler of streaming
// job j and parks until the handler's sweep returns. A handler whose
// deadline fired while j was queued is gone; the worker keeps its slot.
func (j *job) lendSlot() {
	select {
	case j.lend <- struct{}{}:
		<-j.back
	case <-j.ctx.Done():
	}
}

// batch is one session checkout's worth of work: one graph, the jobs
// queued against it. While a batch sits in the FIFO it is open — later
// requests for the same graph join it instead of occupying a queue slot,
// which is the micro-batching: a burst of queries against one topology
// costs one checkout and one weight DMA, and overlapping destination sets
// are solved once.
type batch struct {
	g    *graph.Graph
	h    uint
	fp   uint64
	jobs []*job
}

// queue is the bounded admission queue of batches. Enqueue never blocks:
// a full FIFO is an overload answered immediately (the closed-loop
// clients back off; the server does not build an unbounded backlog).
type queue struct {
	mu     sync.Mutex
	open   map[uint64][]*batch // still joinable: in FIFO, not yet taken
	ch     chan *batch
	closed bool

	batches, coalesced int64
}

func newQueue(depth int) *queue {
	return &queue{open: make(map[uint64][]*batch), ch: make(chan *batch, depth)}
}

func sameGraph(a, b *graph.Graph) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			return false
		}
	}
	return true
}

// enqueue admits j: joining an open batch for the same graph if one is
// queued (no new slot consumed), otherwise claiming a FIFO slot. Batches
// are keyed by graph.Fingerprint — the same key the router tier hashes
// across the fleet — followed by an exact compare, so a collision costs
// a missed coalesce opportunity, never a wrong answer.
func (q *queue) enqueue(j *job, g *graph.Graph, h uint, maxBatch int) error {
	fp := graph.Fingerprint(g, h)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrShuttingDown
	}
	if j.lend == nil {
		for _, b := range q.open[fp] {
			if b.h == h && len(b.jobs) < maxBatch && sameGraph(b.g, g) {
				b.jobs = append(b.jobs, j)
				q.coalesced++
				return nil
			}
		}
	}
	b := &batch{g: g, h: h, fp: fp, jobs: []*job{j}}
	select {
	case q.ch <- b:
		// A streaming batch is exclusive: it is never registered as open,
		// so later same-graph jobs cannot join it (and it cannot be found
		// by take's open-list scan, which tolerates absence).
		if j.lend == nil {
			q.open[fp] = append(q.open[fp], b)
		}
		q.batches++
		return nil
	default:
		return ErrOverloaded
	}
}

// take closes b to joiners; the calling worker now owns its job list.
func (q *queue) take(b *batch) {
	q.mu.Lock()
	defer q.mu.Unlock()
	list := q.open[b.fp]
	for i, ob := range list {
		if ob == b {
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			if len(list) == 1 {
				delete(q.open, b.fp)
			} else {
				q.open[b.fp] = list[:len(list)-1]
			}
			break
		}
	}
}

// depth is the number of batches waiting in the FIFO.
func (q *queue) depth() int { return len(q.ch) }

// stats returns (batches dispatched, jobs coalesced into existing batches).
func (q *queue) stats() (batches, coalesced int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.batches, q.coalesced
}

// shutdown stops admission and lets workers drain the FIFO.
func (q *queue) shutdown() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}
