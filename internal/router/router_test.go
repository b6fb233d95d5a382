package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppamcp/internal/graph"
	"ppamcp/internal/serve"
)

// stubBackend is a fake ppaserved: it answers /healthz from a flag and
// counts /v1/solve hits, optionally failing or stalling them.
type stubBackend struct {
	ts       *httptest.Server
	solves   atomic.Int64
	draining atomic.Bool
	fail     atomic.Bool   // answer 500 on solve
	hold     chan struct{} // when non-nil, solve blocks until closed
}

func newStubBackend(t *testing.T, hold bool) *stubBackend {
	t.Helper()
	b := &stubBackend{}
	if hold {
		b.hold = make(chan struct{})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		hs := serve.HealthStatus{Status: "ok"}
		code := http.StatusOK
		if b.draining.Load() {
			hs.Status, hs.Draining = "draining", true
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(hs)
	})
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		b.solves.Add(1)
		if b.hold != nil {
			<-b.hold
		}
		if b.fail.Load() {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"n":4,"bits":8,"results":[{"dest":0,"dist":[0,-1,-1,-1],"next":[-1,-1,-1,-1],"iterations":1}]}`)
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

// newTestRouter builds a router over the given backend URLs with a long
// health interval so only explicit CheckNow calls change membership.
func newTestRouter(t *testing.T, cfg Config, urls ...string) *Router {
	t.Helper()
	cfg.Backends = urls
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	})
	return rt
}

func solveBody(t *testing.T, g *graph.Graph, dests ...int) []byte {
	t.Helper()
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.SolveRequest{Graph: raw, Dests: dests})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postRouter(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRouterSingleFlightOneUpstreamCall: K concurrent identical misses
// reach the backend exactly once; one response is the miss, the rest are
// collapsed; a later identical request is a cache hit with no further
// upstream call.
func TestRouterSingleFlightOneUpstreamCall(t *testing.T) {
	b := newStubBackend(t, true)
	rt := newTestRouter(t, Config{}, b.ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	g := graph.GenChain(4, 3)
	body := solveBody(t, g, 0)
	const K = 8
	var wg sync.WaitGroup
	var miss, collapsed, other atomic.Int64
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postRouter(t, front, body)
			if resp.StatusCode != http.StatusOK {
				other.Add(1)
				return
			}
			switch resp.Header.Get("X-Ppa-Cache") {
			case "miss":
				miss.Add(1)
			case "collapsed":
				collapsed.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	// Wait for the leader to reach the backend and the followers to pile
	// onto the flight, then release the backend.
	deadline := time.Now().Add(5 * time.Second)
	for rt.flights.Collapsed() < K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never collapsed: %d", rt.flights.Collapsed())
		}
		time.Sleep(time.Millisecond)
	}
	close(b.hold)
	wg.Wait()

	if got := b.solves.Load(); got != 1 {
		t.Fatalf("backend saw %d solve calls for %d concurrent identical requests, want 1", got, K)
	}
	if miss.Load() != 1 || collapsed.Load() != K-1 || other.Load() != 0 {
		t.Errorf("miss=%d collapsed=%d other=%d, want 1/%d/0", miss.Load(), collapsed.Load(), other.Load(), K-1)
	}

	resp, _ := postRouter(t, front, body)
	if src := resp.Header.Get("X-Ppa-Cache"); src != "hit" {
		t.Errorf("repeat request source = %q, want hit", src)
	}
	if got := b.solves.Load(); got != 1 {
		t.Errorf("cache hit still called the backend (%d calls)", got)
	}
}

// TestRouterHealthEvictionAndReadmission: a draining backend is evicted
// on the next sweep (single strike), traffic shifts entirely to the
// survivor, and one healthy probe re-admits — with placement restored
// deterministically.
func TestRouterHealthEvictionAndReadmission(t *testing.T) {
	b1 := newStubBackend(t, false)
	b2 := newStubBackend(t, false)
	rt := newTestRouter(t, Config{}, b1.ts.URL, b2.ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	ctx := context.Background()
	rt.CheckNow(ctx)
	for _, bh := range rt.Fleet() {
		if !bh.Healthy {
			t.Fatalf("%s unhealthy at start", bh.URL)
		}
	}

	b2.draining.Store(true)
	rt.CheckNow(ctx)
	var evicted bool
	for _, bh := range rt.Fleet() {
		if bh.URL == strings.TrimRight(b2.ts.URL, "/") && !bh.Healthy {
			evicted = true
		}
	}
	if !evicted {
		t.Fatal("draining backend not evicted after one sweep")
	}

	// All traffic lands on the survivor now, whatever the fingerprint.
	before := b1.solves.Load()
	for seed := int64(0); seed < 6; seed++ {
		g := graph.GenRandomConnected(6, 0.5, 9, seed)
		resp, data := postRouter(t, front, solveBody(t, g, 0))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve after eviction = %d: %s", resp.StatusCode, data)
		}
	}
	if b1.solves.Load()-before != 6 {
		t.Errorf("survivor saw %d solves, want 6", b1.solves.Load()-before)
	}

	b2.draining.Store(false)
	rt.CheckNow(ctx)
	for _, bh := range rt.Fleet() {
		if !bh.Healthy {
			t.Errorf("%s not re-admitted after recovery", bh.URL)
		}
	}
}

// TestRouterFailoverOnKilledBackend: with one of two backends killed
// outright (connection refused), every request still answers 200 within
// the retry budget, the dead backend is passively evicted, and the
// router /healthz stays green.
func TestRouterFailoverOnKilledBackend(t *testing.T) {
	b1 := newStubBackend(t, false)
	b2 := newStubBackend(t, false)
	rt := newTestRouter(t, Config{EvictAfter: 2}, b1.ts.URL, b2.ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	b2.ts.CloseClientConnections()
	b2.ts.Close()

	for seed := int64(0); seed < 10; seed++ {
		g := graph.GenRandomConnected(6, 0.5, 9, seed)
		resp, data := postRouter(t, front, solveBody(t, g, 0))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s) — request lost past the retry budget", seed, resp.StatusCode, data)
		}
	}

	// Passive transport failures must have evicted the corpse.
	var dead bool
	for _, bh := range rt.Fleet() {
		if bh.URL == strings.TrimRight(b2.ts.URL, "/") {
			dead = !bh.Healthy
		}
	}
	if !dead {
		t.Error("killed backend still marked healthy after transport failures")
	}

	resp, err := front.Client().Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var rh RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&rh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rh.HealthyBackends != 1 {
		t.Errorf("router health = %d %+v, want 200 with 1 healthy backend", resp.StatusCode, rh)
	}
}

// TestRouterRetryableStatuses: 500 fails over to the next ring member;
// 429 passes through with Retry-After instead of being retried.
func TestRouterRetryableStatuses(t *testing.T) {
	b1 := newStubBackend(t, false)
	b2 := newStubBackend(t, false)
	rt := newTestRouter(t, Config{}, b1.ts.URL, b2.ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Make every solve on b1 fail with 500: any request whose primary is
	// b1 must be answered by b2, and vice-versa nothing changes.
	b1.fail.Store(true)
	for seed := int64(0); seed < 8; seed++ {
		g := graph.GenRandomConnected(6, 0.5, 9, seed)
		resp, data := postRouter(t, front, solveBody(t, g, 0))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s); 500 should fail over", seed, resp.StatusCode, data)
		}
	}
	b1.fail.Store(false)

	// A 429 with Retry-After is backpressure for the client: passed
	// through verbatim, never retried elsewhere.
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer shed.Close()
	rt2 := newTestRouter(t, Config{}, shed.URL)
	front2 := httptest.NewServer(rt2.Handler())
	defer front2.Close()
	g := graph.GenChain(4, 3)
	resp, _ := postRouter(t, front2, solveBody(t, g, 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429 passed through", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want 7 passed through", ra)
	}
}

// TestRouterValidation: malformed requests die at the front door with
// 400 and never reach a backend.
func TestRouterValidation(t *testing.T) {
	b := newStubBackend(t, false)
	rt := newTestRouter(t, Config{MaxVertices: 64}, b.ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "{", 400},
		{"no dests", `{"graph":{"n":2,"edges":[[0,1,3]]}}`, 400},
		{"dest out of range", `{"graph":{"n":2,"edges":[[0,1,3]]},"dests":[5]}`, 400},
		{"oversized", `{"graph":{"n":4096,"edges":[]},"dests":[0]}`, 400},
		{"both graph and gen", `{"graph":{"n":2,"edges":[]},"gen":{"gen":"chain"},"dests":[0]}`, 400},
	}
	for _, c := range cases {
		resp, data := postRouter(t, front, []byte(c.body))
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d (%s), want %d", c.name, resp.StatusCode, data, c.want)
		}
	}
	if got := b.solves.Load(); got != 0 {
		t.Errorf("invalid requests reached the backend %d times", got)
	}

	resp, err := front.Client().Get(front.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}

// startServeBackend boots a real in-process ppaserved over httptest.
func startServeBackend(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Server) {
	t.Helper()
	svc := serve.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return ts, svc
}

// TestRouterE2EMultiBackend is the fleet end-to-end: 3 real ppaserved
// backends behind the router, concurrent clients over a mixed workload.
// Every response is Bellman-Ford-verified, every graph's traffic sticks
// to one backend (warm-session affinity), repeats hit the front-door
// cache, and /metrics reports membership and the hit ratio.
func TestRouterE2EMultiBackend(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		ts, _ := startServeBackend(t, serve.Config{Workers: 2, MaxVertices: 64})
		urls = append(urls, ts.URL)
	}
	rt := newTestRouter(t, Config{}, urls...)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const nGraphs = 6
	graphs := make([]*graph.Graph, nGraphs)
	for i := range graphs {
		graphs[i] = graph.GenRandomConnected(16, 0.4, 9, int64(i))
	}

	var mu sync.Mutex
	backendByGraph := make(map[int]map[string]bool)
	hits := 0

	const clients = 8
	const perClient = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				gi := (c + r) % nGraphs
				dest := (c*7 + r) % 4 // small dest space so repeats occur
				resp, data := postRouter(t, front, solveBody(t, graphs[gi], dest))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d req %d: status %d (%s)", c, r, resp.StatusCode, data)
					return
				}
				var sr serve.SolveResponse
				if err := json.Unmarshal(data, &sr); err != nil {
					t.Errorf("client %d req %d: %v", c, r, err)
					return
				}
				if err := verifyAgainstReference(graphs[gi], &sr, dest); err != nil {
					t.Errorf("client %d req %d: %v", c, r, err)
					return
				}
				mu.Lock()
				if resp.Header.Get("X-Ppa-Cache") == "hit" {
					hits++
				}
				if b := resp.Header.Get("X-Ppa-Backend"); b != "" {
					if backendByGraph[gi] == nil {
						backendByGraph[gi] = make(map[string]bool)
					}
					backendByGraph[gi][b] = true
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Affinity: each graph's upstream traffic went to exactly one backend.
	for gi, set := range backendByGraph {
		if len(set) != 1 {
			t.Errorf("graph %d was served by %d backends %v; affinity broken", gi, len(set), set)
		}
	}
	if hits == 0 {
		t.Error("no front-door cache hits across a repeating workload")
	}

	resp, err := front.Client().Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(data)
	for _, want := range []string{
		"pparouter_ring_size 3",
		"pparouter_ring_members 3",
		"pparouter_cache_hit_ratio",
		"pparouter_cache_hits_total",
		"pparouter_backend_requests_total",
		"pparouter_singleflight_collapsed_total",
		`pparouter_requests_total{path="/v1/solve",code="200"}`,
		"# TYPE pparouter_backend_queue_depth gauge",
		"pparouter_backend_queue_depth{backend=",
		"# TYPE pparouter_backend_pool_idle gauge",
		"# TYPE pparouter_backend_inflight_batches gauge",
		"pparouter_backend_inflight_batches{backend=",
		"# TYPE pparouter_backend_sessions gauge",
		"pparouter_backend_sessions{backend=",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRouterKillBackendMidRun: with real backends and a client stream,
// killing one backend mid-run loses nothing — every request answers 200
// (failover inside the retry budget) and verifies against the
// reference.
func TestRouterKillBackendMidRun(t *testing.T) {
	ts1, _ := startServeBackend(t, serve.Config{Workers: 2, MaxVertices: 64})
	victim, _ := startServeBackend(t, serve.Config{Workers: 2, MaxVertices: 64})
	rt := newTestRouter(t, Config{EvictAfter: 1}, ts1.URL, victim.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const nGraphs = 8
	graphs := make([]*graph.Graph, nGraphs)
	for i := range graphs {
		graphs[i] = graph.GenRandomConnected(12, 0.4, 9, int64(100+i))
	}

	const clients = 4
	const perClient = 20
	killAt := int64(clients * perClient / 4)
	var sent atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				if sent.Add(1) == killAt {
					killOnce.Do(func() {
						victim.CloseClientConnections()
						victim.Close()
					})
				}
				gi := (c*perClient + r) % nGraphs
				dest := r % graphs[gi].N
				resp, data := postRouter(t, front, solveBody(t, graphs[gi], dest))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d req %d: status %d (%s) — lost a request", c, r, resp.StatusCode, data)
					return
				}
				var sr serve.SolveResponse
				if err := json.Unmarshal(data, &sr); err != nil {
					t.Errorf("client %d req %d: %v", c, r, err)
					return
				}
				if err := verifyAgainstReference(graphs[gi], &sr, dest); err != nil {
					t.Errorf("client %d req %d: %v", c, r, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// verifyAgainstReference checks one response's single result against
// Bellman-Ford plus the next-hop certificate.
func verifyAgainstReference(g *graph.Graph, sr *serve.SolveResponse, dest int) error {
	if len(sr.Results) != 1 {
		return fmt.Errorf("%d results, want 1", len(sr.Results))
	}
	dr := sr.Results[0]
	if dr.Dest != dest {
		return fmt.Errorf("result for dest %d, want %d", dr.Dest, dest)
	}
	want, err := graph.BellmanFord(g, dest)
	if err != nil {
		return err
	}
	res := graph.Result{Dest: dest, Dist: make([]int64, g.N), Next: dr.Next, Iterations: dr.Iterations}
	for i, d := range dr.Dist {
		if d < 0 {
			res.Dist[i] = graph.NoEdge
		} else {
			res.Dist[i] = d
		}
	}
	if !graph.SameDistances(&res, want) {
		return fmt.Errorf("dest %d: distances diverge from Bellman-Ford", dest)
	}
	return graph.CheckResult(g, &res)
}

// TestRouterShutdownClosesUpstreamConns serves concurrent traffic through
// a router over two real backends, then shuts the router down. Every
// connection the router opened to a backend must close soon after,
// without the backend's help, and each backend's http.Server.Shutdown
// must then return well inside the ~5 s it waits on a connection that
// was dialed and never used.
func TestRouterShutdownClosesUpstreamConns(t *testing.T) {
	var mu sync.Mutex
	open := map[net.Conn]bool{}
	track := func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			open[c] = true
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
	}
	var srvs []*http.Server
	var urls []string
	for i := 0; i < 2; i++ {
		svc := serve.New(serve.Config{Workers: 1, MaxVertices: 16})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: svc.Handler(), ConnState: track}
		go srv.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Close()
			svc.Shutdown(ctx)
		})
		srvs = append(srvs, srv)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	rt, err := New(Config{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				g := graph.GenRandomConnected(16, 0.4, 9, int64(c*6+r))
				if resp, data := postRouter(t, front, solveBody(t, g, r%16)); resp.StatusCode != http.StatusOK {
					t.Errorf("client %d req %d: status %d (%s)", c, r, resp.StatusCode, data)
				}
			}
		}(c)
	}
	wg.Wait()
	front.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		n := len(open)
		mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d backend connections still open 2 s after the router shut down", n)
		}
	}
	for i, srv := range srvs {
		start := time.Now()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("backend %d: Shutdown took %v after the router shut down", i, el)
		}
	}
}
