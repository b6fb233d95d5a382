package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ppamcp/internal/cli"
	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/virt"
)

// postSolve sends a SolveRequest and decodes the reply.
func postSolve(t *testing.T, c *http.Client, url string, req SolveRequest) (int, *SolveResponse, *ErrorResponse, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		var sr SolveResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("decode response: %v\n%s", err, data)
		}
		return resp.StatusCode, &sr, nil, resp.Header
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("decode %d error body: %v\n%s", resp.StatusCode, err, data)
	}
	return resp.StatusCode, nil, &er, resp.Header
}

func rawGraph(t *testing.T, g *graph.Graph) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func rawGen(t *testing.T, w cli.Workload) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkResponse verifies a SolveResponse against the sequential reference
// (Bellman-Ford distances, and a full witness-path check on the returned
// next-hop pointers).
func checkResponse(t *testing.T, g *graph.Graph, sr *SolveResponse, dests []int) {
	t.Helper()
	if sr.N != g.N {
		t.Fatalf("response n = %d, want %d", sr.N, g.N)
	}
	if len(sr.Results) != len(dests) {
		t.Fatalf("got %d results, want %d", len(sr.Results), len(dests))
	}
	for k, dr := range sr.Results {
		if dr.Dest != dests[k] {
			t.Fatalf("result %d is for dest %d, want %d", k, dr.Dest, dests[k])
		}
		want, err := graph.BellmanFord(g, dr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		res := graph.Result{Dest: dr.Dest, Dist: make([]int64, g.N), Next: dr.Next, Iterations: dr.Iterations}
		for i, d := range dr.Dist {
			if d < 0 {
				res.Dist[i] = graph.NoEdge
			} else {
				res.Dist[i] = d
			}
		}
		if !graph.SameDistances(&res, want) {
			t.Fatalf("dest %d: distances diverge from Bellman-Ford", dr.Dest)
		}
		if err := graph.CheckResult(g, &res); err != nil {
			t.Fatalf("dest %d: %v", dr.Dest, err)
		}
	}
}

// leakCheck fails if the goroutine count has not returned to (roughly)
// base within a grace period.
func leakCheck(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 { // tolerate runtime helper goroutines
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s", n, base, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestE2EConcurrentClients is the acceptance test: 32 concurrent clients
// mixing inline graphs and generator specs, every response checked
// against the sequential reference, followed by a graceful shutdown with
// no leaked goroutines.
func TestE2EConcurrentClients(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	srv := New(Config{Workers: 4, QueueDepth: 64, PoolCap: 16})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	const clients = 32
	const perClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				// A small set of distinct workloads so the session pool
				// and the coalescer both see repeats.
				seed := int64(1 + (c+r)%4)
				spec := cli.Workload{Gen: "connected", N: 16, Density: 0.3, MaxW: 9, Seed: seed}
				g, err := spec.Build()
				if err != nil {
					errs <- err
					return
				}
				dests := []int{c % g.N, (c + 7) % g.N}
				var req SolveRequest
				if c%2 == 0 {
					req = SolveRequest{Graph: rawGraph(t, g), Dests: dests}
				} else {
					req = SolveRequest{Gen: rawGen(t, spec), Dests: dests}
				}
				code, sr, er, _ := postSolve(t, client, ts.URL, req)
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %v", c, code, er)
					return
				}
				if sr.Batched < 1 || sr.Bits == 0 {
					errs <- fmt.Errorf("client %d: implausible response meta %+v", c, sr)
					return
				}
				checkResponse(t, g, sr, dests)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The pool must have been exercised: 96 requests over 4 distinct
	// (n, h) workloads cannot all be cold builds.
	if st := srv.pool.Stats(); st.Hits == 0 {
		t.Errorf("pool saw no hits across %d requests: %+v", clients*perClient, st)
	}

	// Observability surface.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		`ppaserved_requests_total{path="/v1/solve",code="200"} 96`,
		"ppaserved_solve_latency_seconds_bucket",
		"ppaserved_session_pool_hits_total",
		"ppaserved_queue_depth",
		"ppaserved_machine_bus_cycles_total",
		"ppaserved_machine_pe_ops_total",
		"ppaserved_solves_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", resp.StatusCode)
	}

	// Graceful shutdown: handlers first, then the solver drain.
	ts.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	leakCheck(t, baseGoroutines)
}

// TestDeadline verifies a request deadline beats a long solve: the
// handler answers 504 and the worker abandons the DP. A gate on the solve
// hook holds the worker, should it reach the solve in time, until the
// deadline has fired, so the solve outlasts the deadline however fast the
// DP lane is.
func TestDeadline(t *testing.T) {
	srv := New(Config{Workers: 1})
	gt := newGate(159)
	defer gt.open()
	srv.hookBeforeSolve = gt.hook
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	g := graph.GenChain(160, 3)
	code, _, er, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{
		Graph: rawGraph(t, g), Dests: []int{159}, TimeoutMS: 1,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%v), want 504", code, er)
	}
	// A worker held in the gate is released past the deadline and
	// abandons the solve.
	gt.open()

	// The session released by the dead request must not poison service:
	// the same solve with a generous deadline succeeds.
	code, sr, er, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{
		Graph: rawGraph(t, g), Dests: []int{159},
	})
	if code != http.StatusOK {
		t.Fatalf("follow-up status = %d (%v), want 200", code, er)
	}
	checkResponse(t, g, sr, []int{159})
}

// TestOverload429 fills the bounded queue and expects load shedding with
// Retry-After (1.5s rounded up to whole seconds), while every accepted
// request still gets a correct answer.
// A gate on the solve hook holds the single worker in its first solve
// until the burst has been shed, then lets the admitted requests finish.
func TestOverload429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1, MaxBatch: 1, RetryAfter: 1500 * time.Millisecond})
	gt := newGate(127)
	defer gt.open()
	srv.hookBeforeSolve = gt.hook
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	const burst = 24
	type outcome struct {
		code  int
		retry string
	}
	var wg sync.WaitGroup
	var shedOnce sync.Once
	shedSeen := make(chan struct{})
	outcomes := make([]outcome, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct weights per request: no coalescing, every request
			// needs its own queue slot. The gated worker stays busy with
			// the first job while the burst arrives, so the depth-1 queue
			// must shed.
			g := graph.GenChain(128, int64(i+1))
			code, sr, _, hdr := postSolve(t, ts.Client(), ts.URL, SolveRequest{
				Graph: rawGraph(t, g), Dests: []int{127},
			})
			outcomes[i] = outcome{code, hdr.Get("Retry-After")}
			if code == http.StatusTooManyRequests {
				shedOnce.Do(func() { close(shedSeen) })
			}
			if code == http.StatusOK {
				checkResponse(t, g, sr, []int{127})
			}
		}(i)
	}
	gt.wait(t)
	select {
	case <-shedSeen:
	case <-time.After(10 * time.Second):
		t.Error("no request was shed while the worker was held")
	}
	gt.open()
	wg.Wait()
	var ok, shed int
	for i, o := range outcomes {
		switch o.code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if o.retry != "2" {
				t.Errorf("request %d: 429 with Retry-After %q, want 1.5s rounded up to \"2\"", i, o.retry)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, o.code)
		}
	}
	if ok == 0 || shed == 0 {
		t.Errorf("burst of %d: %d ok, %d shed; want both nonzero", burst, ok, shed)
	}
}

// TestQueueCoalescing pins the micro-batching contract at the queue
// level, where it is deterministic: with no worker draining, jobs for the
// same graph join one batch and jobs for a different graph claim a new
// slot.
func TestQueueCoalescing(t *testing.T) {
	q := newQueue(4)
	gA := graph.GenChain(8, 3)
	gB := graph.GenChain(8, 4) // same size, different weights
	mk := func() *job { return &job{ctx: context.Background(), dests: []int{0}, done: make(chan jobDone, 1)} }

	for i := 0; i < 3; i++ {
		if err := q.enqueue(mk(), gA, 8, 16); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.enqueue(mk(), gB, 8, 16); err != nil {
		t.Fatal(err)
	}
	// Same weights but different width must not coalesce either.
	if err := q.enqueue(mk(), gA, 16, 16); err != nil {
		t.Fatal(err)
	}
	if q.depth() != 3 {
		t.Fatalf("queue depth = %d, want 3 (A-batch, B-batch, A@16-batch)", q.depth())
	}
	b1 := <-q.ch
	q.take(b1)
	if len(b1.jobs) != 3 || !sameGraph(b1.g, gA) {
		t.Fatalf("first batch has %d jobs for %v, want 3 for graph A", len(b1.jobs), b1.g)
	}
	if _, coalesced := q.stats(); coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", coalesced)
	}
	// A taken batch is closed: the same graph now starts a fresh batch.
	if err := q.enqueue(mk(), gA, 8, 16); err != nil {
		t.Fatal(err)
	}
	b2 := <-q.ch
	q.take(b2)
	if sameGraph(b2.g, gA) {
		t.Fatalf("expected graph B batch next in FIFO")
	}

	// MaxBatch bound: a full batch stops accepting joiners.
	qq := newQueue(4)
	for i := 0; i < 3; i++ {
		if err := qq.enqueue(mk(), gA, 8, 2); err != nil {
			t.Fatal(err)
		}
	}
	if qq.depth() != 2 {
		t.Fatalf("maxBatch=2: depth = %d, want 2", qq.depth())
	}

	// Admission: depth-1 queue sheds the second distinct graph.
	q1 := newQueue(1)
	if err := q1.enqueue(mk(), gA, 8, 16); err != nil {
		t.Fatal(err)
	}
	if err := q1.enqueue(mk(), gB, 8, 16); err != ErrOverloaded {
		t.Fatalf("overflow err = %v, want ErrOverloaded", err)
	}
	// ... but the same graph still coalesces into the queued batch.
	if err := q1.enqueue(mk(), gA, 8, 16); err != nil {
		t.Fatalf("coalesce into full queue: %v", err)
	}
	q1.shutdown()
	if err := q1.enqueue(mk(), gA, 8, 16); err != ErrShuttingDown {
		t.Fatalf("post-shutdown err = %v, want ErrShuttingDown", err)
	}
}

// TestPool pins checkout semantics: miss then hit, capacity discard, and
// a Reload failure surfacing as an error.
func TestPool(t *testing.T) {
	p := NewPool(1, 0, 0)
	g1 := graph.GenChain(8, 3)
	g2 := graph.GenChain(8, 5)

	s1, hit, err := p.Get(g1, 8)
	if err != nil || hit {
		t.Fatalf("first Get: hit=%v err=%v", hit, err)
	}
	s2, hit, err := p.Get(g2, 8)
	if err != nil || hit {
		t.Fatalf("concurrent Get: hit=%v err=%v", hit, err)
	}
	p.Put(s1)
	p.Put(s2) // over capacity: dropped
	st := p.Stats()
	if st.Idle != 1 || st.Discards != 1 {
		t.Fatalf("stats after puts: %+v", st)
	}
	s3, hit, err := p.Get(g2, 8)
	if err != nil || !hit {
		t.Fatalf("warm Get: hit=%v err=%v", hit, err)
	}
	res, err := s3.Solve(7)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := graph.BellmanFord(g2, 7)
	if !graph.SameDistances(&res.Result, want) {
		t.Fatal("recycled session solved the wrong graph")
	}
	p.Put(s3)

	// A graph whose costs exceed h fails cleanly on the warm path too.
	wide := graph.GenChain(8, 1)
	wide.SetEdge(0, 1, 1000)
	if _, _, err := p.Get(wide, 8); err == nil {
		t.Fatal("pool accepted weights that overflow h=8")
	}
}

// TestPoolKeysFabricOptions is the regression test for the pool key: it
// used to be {n, h} only, so a session built on one fabric shape could be
// handed out for a request expecting another. Interchangeability must
// also require equal fabric-relevant options (PhysicalSide,
// ReferenceKernels), keyed by what the session was actually built with.
func TestPoolKeysFabricOptions(t *testing.T) {
	g := graph.GenChain(8, 3)

	// A foreign session with the same {n, h} but a different fabric shape
	// (block-mapped 8-on-4, reference kernels) parked in a direct pool
	// must NOT satisfy a direct checkout.
	direct := NewPool(4, 0, 0)
	odd, err := core.NewSession(g, core.Options{Bits: 8, PhysicalSide: 4, ReferenceKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	direct.Put(odd)
	s, hit, err := direct.Get(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("direct checkout satisfied by a virtualized reference-kernel session")
	}
	if s.Options() != (core.Options{Bits: 8}) {
		t.Fatalf("direct pool built options %+v", s.Options())
	}
	direct.Put(s)

	// A virtualizing pool keys its own sessions consistently: put then
	// get of a tileable graph is a hit, and the session really is
	// block-mapped.
	vp := NewPool(4, 0, 4)
	s1, hit, err := vp.Get(g, 8)
	if err != nil || hit {
		t.Fatalf("cold virtualized Get: hit=%v err=%v", hit, err)
	}
	if s1.Options().PhysicalSide != 4 {
		t.Fatalf("virtualizing pool built PhysicalSide=%d, want 4", s1.Options().PhysicalSide)
	}
	if _, ok := s1.Fabric().(*virt.Machine); !ok {
		t.Fatalf("virtualizing pool built fabric %T, want *virt.Machine", s1.Fabric())
	}
	vp.Put(s1)
	s2, hit, err := vp.Get(g, 8)
	if err != nil || !hit {
		t.Fatalf("warm virtualized Get: hit=%v err=%v", hit, err)
	}
	res, err := s2.Solve(7)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := graph.BellmanFord(g, 7)
	if !graph.SameDistances(&res.Result, want) {
		t.Fatal("virtualized session solved the wrong answer")
	}
	vp.Put(s2)

	// Graphs the physical side cannot tile fall back to direct execution
	// under a distinct key — they neither fail nor poach virt sessions.
	g6 := graph.GenChain(6, 3)
	s3, hit, err := vp.Get(g6, 8)
	if err != nil || hit {
		t.Fatalf("untileable Get: hit=%v err=%v", hit, err)
	}
	if s3.Options().PhysicalSide != 0 {
		t.Fatalf("untileable graph got PhysicalSide=%d, want 0 (direct)", s3.Options().PhysicalSide)
	}
	vp.Put(s3)
	vp.Close()
	direct.Close()
}

// TestPanicIsolation injects a panic into one request's solve and
// verifies the blast radius: that request gets a 500, the poisoned
// session never returns to the pool, and the service keeps answering.
func TestPanicIsolation(t *testing.T) {
	srv := New(Config{Workers: 1})
	var once sync.Once
	srv.hookBeforeSolve = func(dest int) {
		if dest == 3 {
			var boom bool
			once.Do(func() { boom = true })
			if boom {
				panic("injected test panic")
			}
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	g := graph.GenChain(8, 3)
	code, _, er, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{Graph: rawGraph(t, g), Dests: []int{3}})
	if code != http.StatusInternalServerError || !strings.Contains(er.Error, "panicked") {
		t.Fatalf("poisoned request: status %d, err %v", code, er)
	}
	code, sr, er, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{Graph: rawGraph(t, g), Dests: []int{3, 7}})
	if code != http.StatusOK {
		t.Fatalf("follow-up: status %d (%v)", code, er)
	}
	checkResponse(t, g, sr, []int{3, 7})
	if st := srv.pool.Stats(); st.Hits != 0 {
		t.Errorf("poisoned session was repooled: %+v", st)
	}
}

// TestBadRequests walks the admission-control error surface.
func TestBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1, MaxVertices: 64, MaxDests: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	g := graph.GenChain(4, 3)

	cases := []struct {
		name string
		req  SolveRequest
		want int
	}{
		{"no graph", SolveRequest{Dests: []int{0}}, 400},
		{"both graph and gen", SolveRequest{Graph: rawGraph(t, g), Gen: json.RawMessage(`{"gen":"chain"}`), Dests: []int{0}}, 400},
		{"no dests", SolveRequest{Graph: rawGraph(t, g)}, 400},
		{"dest out of range", SolveRequest{Graph: rawGraph(t, g), Dests: []int{4}}, 400},
		{"negative dest", SolveRequest{Graph: rawGraph(t, g), Dests: []int{-1}}, 400},
		{"too many dests", SolveRequest{Graph: rawGraph(t, g), Dests: []int{0, 1, 2, 3, 0}}, 400},
		{"oversized inline graph", SolveRequest{Graph: json.RawMessage(`{"n":4096,"edges":[]}`), Dests: []int{0}}, 400},
		{"oversized gen", SolveRequest{Gen: json.RawMessage(`{"gen":"chain","n":4096}`), Dests: []int{0}}, 400},
		{"unknown generator", SolveRequest{Gen: json.RawMessage(`{"gen":"hypergraph"}`), Dests: []int{0}}, 400},
		{"bad gen params", SolveRequest{Gen: json.RawMessage(`{"gen":"random","density":7}`), Dests: []int{0}}, 400},
		{"negative weight inline", SolveRequest{Graph: json.RawMessage(`{"n":2,"edges":[[0,1,-5]]}`), Dests: []int{0}}, 400},
		{"excessive bits", SolveRequest{Graph: rawGraph(t, g), Dests: []int{0}, Bits: 63}, 400},
	}
	for _, c := range cases {
		code, _, er, _ := postSolve(t, ts.Client(), ts.URL, c.req)
		if code != c.want {
			t.Errorf("%s: status = %d (%v), want %d", c.name, code, er, c.want)
		}
	}

	// Method check.
	resp, err := ts.Client().Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}

// TestShutdownRefusesNewWork: after Shutdown the surface answers 503 on
// solve and healthz (load balancers drain on that signal).
func TestShutdownRefusesNewWork(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	g := graph.GenChain(4, 3)
	code, _, _, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{Graph: rawGraph(t, g), Dests: []int{0}})
	if code != http.StatusServiceUnavailable {
		t.Errorf("solve after shutdown = %d, want 503", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown = %d, want 503", resp.StatusCode)
	}
}

// TestPickBits pins the width-quantization policy pooled sessions rely on.
func TestPickBits(t *testing.T) {
	small := graph.GenChain(8, 3) // needs ~5 bits -> quantized to 8
	h, err := PickBits(small, 0)
	if err != nil || h != 8 {
		t.Errorf("PickBits(small, auto) = %d, %v; want 8", h, err)
	}
	h, err = PickBits(small, 11) // explicit widths are honored exactly
	if err != nil || h != 11 {
		t.Errorf("PickBits(small, 11) = %d, %v; want 11", h, err)
	}
	if _, err = PickBits(small, 200); err == nil {
		t.Error("pickBits accepted h=200")
	}
	wide := graph.New(2)
	wide.SetEdge(0, 1, int64(1)<<62)
	if _, err = PickBits(wide, 0); err == nil {
		t.Error("pickBits accepted costs beyond the machine maximum")
	}
}

// TestSolveEdgelessGraph: a weightless graph still needs words wide
// enough for its vertex indices. An edgeless n=300 body, within the
// default MaxVertices, must solve instead of answering 400.
func TestSolveEdgelessGraph(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	g := graph.New(300)
	dests := []int{0, 299}
	code, sr, er, _ := postSolve(t, ts.Client(), ts.URL,
		SolveRequest{Graph: json.RawMessage(`{"n":300,"edges":[]}`), Dests: dests})
	if code != http.StatusOK {
		t.Fatalf("status = %d (%v), want 200", code, er)
	}
	checkResponse(t, g, sr, dests)
}

// TestHealthzBody pins the /healthz JSON contract the router tier
// consumes: 200 + {"status":"ok",...} while serving, 503 +
// {"status":"draining","draining":true,...} once shutdown begins — the
// status-code contract load balancers drain on is unchanged.
func TestHealthzBody(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func() (int, HealthStatus) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hs HealthStatus
		if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
			t.Fatalf("healthz body is not JSON: %v", err)
		}
		return resp.StatusCode, hs
	}

	code, hs := get()
	if code != http.StatusOK || hs.Status != "ok" || hs.Draining {
		t.Errorf("healthz while serving = %d %+v, want 200 ok", code, hs)
	}
	if hs.QueueDepth != 0 || hs.InflightBatches != 0 {
		t.Errorf("idle server reports load: %+v", hs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, hs = get()
	if code != http.StatusServiceUnavailable || hs.Status != "draining" || !hs.Draining {
		t.Errorf("healthz while draining = %d %+v, want 503 draining", code, hs)
	}
}

// TestReadBodyBuffer: ReadBody reads a body of declared length into one
// buffer of that size, and a Content-Length that lies cannot make it
// reserve more than maxInitialBody: a body that declares 8 MiB and sends
// 10 bytes gets a 64 KiB buffer.
func TestReadBodyBuffer(t *testing.T) {
	body := benchBody()
	for _, c := range []struct {
		name     string
		declared int64
		sent     []byte
		wantCap  int // 0: not pinned
	}{
		{"exact length", int64(len(body)), body, len(body) + 1},
		{"8 MiB declared, 10 bytes sent", 8 << 20, body[:10], maxInitialBody},
		{"unknown length", -1, body, 0},
		{"empty", 0, nil, 1},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(c.sent))
		r.ContentLength = c.declared
		got, status, err := ReadBody(httptest.NewRecorder(), r, 8<<20, time.Second)
		if err != nil || status != http.StatusOK || !bytes.Equal(got, c.sent) {
			t.Fatalf("%s: read %d bytes, status %d, err %v; want the %d bytes sent", c.name, len(got), status, err, len(c.sent))
		}
		if c.wantCap != 0 && cap(got) != c.wantCap {
			t.Errorf("%s: buffer capacity %d, want %d", c.name, cap(got), c.wantCap)
		}
	}
}
