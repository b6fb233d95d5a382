package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ppamcp/internal/graph"
)

// apStream is one parsed /v1/allpairs exchange. For non-200 replies only
// code and er are set; for streams, header/rows plus either trailer
// (complete) or errLine (failed mid-stream).
type apStream struct {
	code    int
	er      *ErrorResponse
	header  *AllPairsHeader
	rows    []DestResult
	trailer *AllPairsTrailer
	errLine *ErrorResponse
}

// postAllPairs sends an AllPairsRequest and parses the NDJSON stream.
// Each line is classified by its discriminating key: the header comes
// first, "done" marks the trailer, "error" a mid-stream failure, and
// everything else is a destination row.
func postAllPairs(t *testing.T, c *http.Client, url string, req AllPairsRequest) *apStream {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url+"/v1/allpairs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/allpairs: %v", err)
	}
	defer resp.Body.Close()
	return readAllPairs(t, resp)
}

// readAllPairs parses one /v1/allpairs reply.
func readAllPairs(t *testing.T, resp *http.Response) *apStream {
	t.Helper()
	out := &apStream{code: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("decode %d error body: %v", resp.StatusCode, err)
		}
		out.er = &er
		return out
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if out.trailer != nil || out.errLine != nil {
			t.Fatalf("line after stream end: %s", line)
		}
		if out.header == nil {
			var h AllPairsHeader
			if err := json.Unmarshal(line, &h); err != nil {
				t.Fatalf("decode header: %v\n%s", err, line)
			}
			out.header = &h
			continue
		}
		var probe struct {
			Done  *bool   `json:"done"`
			Error *string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("decode line: %v\n%s", err, line)
		}
		switch {
		case probe.Error != nil:
			out.errLine = &ErrorResponse{Error: *probe.Error}
		case probe.Done != nil:
			var tr AllPairsTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatalf("decode trailer: %v\n%s", err, line)
			}
			out.trailer = &tr
		default:
			var dr DestResult
			if err := json.Unmarshal(line, &dr); err != nil {
				t.Fatalf("decode row: %v\n%s", err, line)
			}
			out.rows = append(out.rows, dr)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return out
}

// checkTable verifies a complete stream: header, one row per destination
// in ascending order, each row matching Bellman-Ford with valid next-hop
// witnesses, and a consistent done trailer.
func checkTable(t *testing.T, g *graph.Graph, st *apStream) {
	t.Helper()
	if st.header == nil || st.header.N != g.N {
		t.Fatalf("stream header = %+v, want n = %d", st.header, g.N)
	}
	if st.errLine != nil {
		t.Fatalf("stream failed: %v", st.errLine.Error)
	}
	if st.trailer == nil || !st.trailer.Done || st.trailer.Rows != g.N {
		t.Fatalf("stream trailer = %+v, want done with %d rows", st.trailer, g.N)
	}
	if st.trailer.Cost.PEOps == 0 || st.trailer.Iterations < g.N {
		t.Fatalf("implausible trailer accounting: %+v", st.trailer)
	}
	dests := make([]int, g.N)
	for d := range dests {
		dests[d] = d
	}
	checkResponse(t, g, &SolveResponse{N: st.header.N, Results: st.rows}, dests)
}

// TestAllPairsE2E is the endpoint acceptance test: a full n=32 table
// streamed as NDJSON, every row verified against the sequential
// reference, and the second request for the same graph served warm.
func TestAllPairsE2E(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	g := graph.GenRandomConnected(32, 0.15, 25, 41)
	st := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g)})
	if st.code != http.StatusOK {
		t.Fatalf("status = %d (%v), want 200", st.code, st.er)
	}
	checkTable(t, g, st)

	st2 := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g)})
	if st2.code != http.StatusOK {
		t.Fatalf("second request: status = %d (%v)", st2.code, st2.er)
	}
	checkTable(t, g, st2)
	if !st2.trailer.PoolHit {
		t.Error("second identical request did not hit the session pool")
	}

	// The endpoint shows up on the metrics surface under its own path.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := `ppaserved_requests_total{path="/v1/allpairs",code="200"} 2`; !strings.Contains(body.String(), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestAllPairsDrainMidStream starts a slow sweep, initiates shutdown
// while rows are still streaming, and requires the stream to complete:
// shutdown drains in-flight batches rather than truncating them.
func TestAllPairsDrainMidStream(t *testing.T) {
	srv := New(Config{Workers: 1, SolveDelay: 5 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g := graph.GenRandomConnected(16, 0.3, 9, 7)
	var wg sync.WaitGroup
	wg.Add(1)
	shutErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		// Give the sweep time to start streaming, then drain.
		time.Sleep(20 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr <- srv.Shutdown(ctx)
	}()
	st := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g)})
	wg.Wait()
	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st.code != http.StatusOK {
		t.Fatalf("status = %d (%v), want 200", st.code, st.er)
	}
	checkTable(t, g, st)

	// Post-drain, the endpoint sheds like the rest of the surface.
	st = postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g)})
	if st.code != http.StatusServiceUnavailable {
		t.Errorf("allpairs after shutdown = %d, want 503", st.code)
	}
}

// TestAllPairsMidStreamFailure injects a panic at destination 5 of a
// sweep: the committed stream must end with an in-band error line and no
// done trailer, the poisoned session must not be repooled, and the
// service must keep answering.
func TestAllPairsMidStreamFailure(t *testing.T) {
	srv := New(Config{Workers: 1})
	var once sync.Once
	srv.hookBeforeSolve = func(dest int) {
		if dest == 5 {
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

	g := graph.GenRandomConnected(12, 0.3, 9, 13)
	st := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g)})
	if st.code != http.StatusOK {
		t.Fatalf("status = %d (%v); the 200 was committed before the panic", st.code, st.er)
	}
	if len(st.rows) != 5 {
		t.Errorf("got %d rows before the failure, want 5 (dests 0..4)", len(st.rows))
	}
	if st.trailer != nil {
		t.Errorf("failed stream carries a done trailer: %+v", st.trailer)
	}
	if st.errLine == nil || !strings.Contains(st.errLine.Error, "panicked") {
		t.Errorf("failed stream error line = %+v, want a panic report", st.errLine)
	}
	if hits := srv.pool.Stats().Hits; hits != 0 {
		t.Errorf("poisoned session was repooled: %d hits", hits)
	}

	// The service recovers: the same sweep now completes.
	st = postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g)})
	if st.code != http.StatusOK {
		t.Fatalf("follow-up status = %d (%v)", st.code, st.er)
	}
	checkTable(t, g, st)
}

// TestAllPairsDeadlinePreStream pins the pre-stream error contract: a
// deadline that fires before the first row maps to a plain 504, exactly
// like /v1/solve. A gate on the solve hook holds the sweep before its
// first destination until the deadline has passed.
func TestAllPairsDeadlinePreStream(t *testing.T) {
	srv := New(Config{Workers: 1})
	gt := newGate(0)
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

	g := graph.GenChain(160, 3).Transpose()
	go func() {
		// The handler sets its 1 ms deadline before the hook runs, so
		// the deadline has fired 1 ms after the sweep is held there.
		select {
		case <-gt.reached:
			time.Sleep(time.Millisecond)
		case <-gt.release: // the test returned first
		}
		gt.open()
	}()
	st := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g), TimeoutMS: 1})
	if st.code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%v), want 504", st.code, st.er)
	}
}

// TestAllPairsBadRequests walks the endpoint's admission surface.
func TestAllPairsBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1, MaxVertices: 64, MaxDests: 16})
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
	big := graph.GenChain(32, 3) // admitted by MaxVertices, refused by MaxDests

	cases := []struct {
		name string
		req  AllPairsRequest
		want int
	}{
		{"no graph", AllPairsRequest{}, 400},
		{"both graph and gen", AllPairsRequest{Graph: rawGraph(t, g), Gen: json.RawMessage(`{"gen":"chain"}`)}, 400},
		{"oversized inline graph", AllPairsRequest{Graph: json.RawMessage(`{"n":4096,"edges":[]}`)}, 400},
		{"n beyond dest cap", AllPairsRequest{Graph: rawGraph(t, big)}, 400},
		{"excessive bits", AllPairsRequest{Graph: rawGraph(t, g), Bits: 63}, 400},
		{"negative weight", AllPairsRequest{Graph: json.RawMessage(`{"n":2,"edges":[[0,1,-5]]}`)}, 400},
	}
	for _, c := range cases {
		st := postAllPairs(t, ts.Client(), ts.URL, c.req)
		if st.code != c.want {
			t.Errorf("%s: status = %d (%v), want %d", c.name, st.code, st.er, c.want)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/allpairs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/allpairs = %d, want 405", resp.StatusCode)
	}
}

// TestAllPairsGenWorkload runs the endpoint off a generator spec, the
// form the ppaload driver uses.
func TestAllPairsGenWorkload(t *testing.T) {
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

	spec := json.RawMessage(`{"gen":"connected","n":10,"density":0.3,"maxw":9,"seed":5}`)
	st := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Gen: spec})
	if st.code != http.StatusOK {
		t.Fatalf("status = %d (%v)", st.code, st.er)
	}
	g := graph.GenRandomConnected(10, 0.3, 9, 5)
	checkTable(t, g, st)
}

// TestAllPairsDestsSubset exercises the optional dests list: the stream
// carries exactly the requested rows in request order, the trailer counts
// the subset, and malformed subsets are refused before any work runs.
func TestAllPairsDestsSubset(t *testing.T) {
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

	// n = 24 exceeds MaxDests, so the full table would be refused; the
	// subset form is exactly how a client takes rows from such a graph.
	g := graph.GenRandomConnected(24, 0.25, 19, 11)
	dests := []int{17, 0, 23}
	st := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g), Dests: dests})
	if st.code != http.StatusOK {
		t.Fatalf("status = %d (%v)", st.code, st.er)
	}
	if st.errLine != nil {
		t.Fatalf("stream failed: %v", st.errLine.Error)
	}
	if st.trailer == nil || !st.trailer.Done || st.trailer.Rows != len(dests) {
		t.Fatalf("trailer = %+v, want done with %d rows", st.trailer, len(dests))
	}
	checkResponse(t, g, &SolveResponse{N: st.header.N, Results: st.rows}, dests)

	bad := []struct {
		name  string
		dests []int
	}{
		{"out of range high", []int{0, 24}},
		{"out of range negative", []int{-1}},
		{"duplicate", []int{3, 9, 3}},
		{"over dest cap", []int{0, 1, 2, 3, 4}},
	}
	for _, c := range bad {
		st := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g), Dests: c.dests})
		if st.code != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%v), want 400", c.name, st.code, st.er)
		}
	}
}
