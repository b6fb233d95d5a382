package serve

import (
	"bufio"
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
	"testing"
	"time"

	"ppamcp/internal/graph"
)

// Admission, first-row and slow-reader tests for the two NDJSON streams.

// startServer serves srv on a test listener and shuts both down at the
// end of the test.
func startServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return ts
}

// gate is a hookBeforeSolve that blocks the first solve of destination at
// until open is called; reached closes when it starts blocking. Tests
// defer open, so a failing test never leaves a handler blocked in it.
type gate struct {
	at               int
	once, opened     sync.Once
	reached, release chan struct{}
}

func (g *gate) open() { g.opened.Do(func() { close(g.release) }) }

func newGate(at int) *gate {
	return &gate{at: at, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) hook(dest int) {
	if dest == g.at {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
}

func (g *gate) wait(t *testing.T) {
	t.Helper()
	select {
	case <-g.reached:
	case <-time.After(10 * time.Second):
		t.Fatalf("no solve reached destination %d", g.at)
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricsText returns the body of GET /metrics.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// goPost sends one POST on its own goroutine and reads the whole reply,
// so the test goroutine can parse and check it.
func goPost(ts *httptest.Server, path string, req any) <-chan *http.Response {
	ch := make(chan *http.Response, 1)
	body, _ := json.Marshal(req)
	go func() {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			resp = &http.Response{StatusCode: -1, Status: err.Error(), Body: io.NopCloser(strings.NewReader(""))}
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
		ch <- resp
	}()
	return ch
}

// recv waits for goPost's reply.
func recv(t *testing.T, ch <-chan *http.Response) *http.Response {
	t.Helper()
	select {
	case resp := <-ch:
		if resp.StatusCode < 0 {
			t.Fatalf("POST: %s", resp.Status)
		}
		return resp
	case <-time.After(15 * time.Second):
		t.Fatal("timed out waiting for a reply")
		return nil
	}
}

// TestAllPairsOverload429 holds one sweep open in its hook, so a second
// sweep fills the depth-1 FIFO and a third is shed with 429 and
// Retry-After (1.5s rounded up to 2); once released, both accepted tables
// complete.
func TestAllPairsOverload429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 1500 * time.Millisecond})
	gt := newGate(1)
	defer gt.open()
	srv.hookBeforeSolve = gt.hook
	ts := startServer(t, srv)
	g := graph.GenRandomConnected(8, 0.4, 9, 3)
	req := AllPairsRequest{Graph: rawGraph(t, g)}

	first := goPost(ts, "/v1/allpairs", req)
	gt.wait(t)
	second := goPost(ts, "/v1/allpairs", req)
	waitFor(t, "the second sweep to queue", func() bool { return srv.q.depth() == 1 })

	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/allpairs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "2" {
		t.Errorf("third sweep: status %d, Retry-After %q; want 429 with Retry-After 2",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	gt.open()
	for _, ch := range []<-chan *http.Response{first, second} {
		st := readAllPairs(t, recv(t, ch))
		if st.code != http.StatusOK {
			t.Fatalf("accepted sweep: status %d (%v)", st.code, st.er)
		}
		checkTable(t, g, st)
	}
}

// TestSolveQueuedBehindSweep: with one worker, a /v1/solve queued behind
// a running sweep waits for the sweep to return the worker's slot.
func TestSolveQueuedBehindSweep(t *testing.T) {
	srv := New(Config{Workers: 1})
	gt := newGate(1)
	defer gt.open()
	srv.hookBeforeSolve = gt.hook
	ts := startServer(t, srv)
	g := graph.GenRandomConnected(8, 0.4, 9, 5)

	sweep := goPost(ts, "/v1/allpairs", AllPairsRequest{Graph: rawGraph(t, g)})
	gt.wait(t)
	solved := goPost(ts, "/v1/solve", SolveRequest{Graph: rawGraph(t, g), Dests: []int{3}})
	waitFor(t, "the solve to queue", func() bool { return srv.q.depth() == 1 })
	select {
	case resp := <-solved:
		t.Fatalf("solve answered %d while the sweep held the only worker", resp.StatusCode)
	case <-time.After(50 * time.Millisecond):
	}

	gt.open()
	if st := readAllPairs(t, recv(t, sweep)); st.code != http.StatusOK {
		t.Fatalf("sweep: status %d (%v)", st.code, st.er)
	} else {
		checkTable(t, g, st)
	}
	resp := recv(t, solved)
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d (%v)", resp.StatusCode, err)
	}
	checkResponse(t, g, &sr, []int{3})
}

// TestAllPairsDeadlineWhileQueued: a sweep whose deadline fires while it
// waits in the FIFO answers 504, and the worker that later dequeues it
// keeps its slot: the next request is served.
func TestAllPairsDeadlineWhileQueued(t *testing.T) {
	srv := New(Config{Workers: 1})
	gt := newGate(1)
	defer gt.open()
	srv.hookBeforeSolve = gt.hook
	ts := startServer(t, srv)
	g := graph.GenRandomConnected(8, 0.4, 9, 7)

	held := goPost(ts, "/v1/allpairs", AllPairsRequest{Graph: rawGraph(t, g)})
	gt.wait(t)
	st := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g), TimeoutMS: 30})
	if st.code != http.StatusGatewayTimeout {
		t.Fatalf("queued sweep: status %d (%v), want 504", st.code, st.er)
	}
	gt.open()
	if st := readAllPairs(t, recv(t, held)); st.code != http.StatusOK {
		t.Fatalf("held sweep: status %d (%v)", st.code, st.er)
	}

	code, sr, er, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{Graph: rawGraph(t, g), Dests: []int{2}, TimeoutMS: 5000})
	if code != http.StatusOK {
		t.Fatalf("next request: status %d (%v), want 200", code, er)
	}
	checkResponse(t, g, sr, []int{2})
	st = postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g), TimeoutMS: 5000})
	if st.code != http.StatusOK {
		t.Fatalf("next sweep: status %d (%v), want 200", st.code, st.er)
	}
	checkTable(t, g, st)
}

// TestAllPairsDeadlineMidStream: a deadline that fires after the first
// row ends the committed stream with an in-band error line naming it,
// although the request deadline is also the stream's write deadline.
func TestAllPairsDeadlineMidStream(t *testing.T) {
	srv := New(Config{Workers: 1, SolveDelay: 20 * time.Millisecond})
	ts := startServer(t, srv)
	g := graph.GenRandomConnected(8, 0.4, 9, 15)
	st := postAllPairs(t, ts.Client(), ts.URL, AllPairsRequest{Graph: rawGraph(t, g), TimeoutMS: 50})
	if st.code != http.StatusOK {
		t.Fatalf("status = %d (%v), want 200", st.code, st.er)
	}
	if len(st.rows) == 0 || len(st.rows) == g.N || st.trailer != nil {
		t.Fatalf("%d rows, trailer %+v; want a partial table", len(st.rows), st.trailer)
	}
	if st.errLine == nil || !strings.Contains(st.errLine.Error, "deadline") {
		t.Fatalf("error line = %+v, want the deadline", st.errLine)
	}
}

// readLine reads one NDJSON line, failing the test if none arrives.
func readLine(t *testing.T, r *bufio.Reader) []byte {
	t.Helper()
	got := make(chan []byte, 1)
	go func() {
		line, _ := r.ReadBytes('\n')
		got <- line
	}()
	select {
	case line := <-got:
		if len(line) == 0 || line[len(line)-1] != '\n' {
			t.Fatalf("stream ended mid-line: %q", line)
		}
		return line
	case <-time.After(10 * time.Second):
		t.Fatal("no line reached the client")
		return nil
	}
}

// TestAllPairsFirstRowFlushed: the first row of a table reaches the client
// while the sweep is still blocked before its second destination.
func TestAllPairsFirstRowFlushed(t *testing.T) {
	srv := New(Config{Workers: 1})
	gt := newGate(1)
	defer gt.open()
	srv.hookBeforeSolve = gt.hook
	ts := startServer(t, srv)
	g := graph.GenRandomConnected(8, 0.4, 9, 9)

	body, _ := json.Marshal(AllPairsRequest{Graph: rawGraph(t, g)})
	replied := make(chan *http.Response, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/allpairs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
		}
		replied <- resp
	}()
	var resp *http.Response
	select {
	case resp = <-replied:
		if resp == nil {
			t.FailNow()
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no response reached the client")
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var h AllPairsHeader
	if err := json.Unmarshal(readLine(t, br), &h); err != nil || h.N != g.N {
		t.Fatalf("header = %+v (%v)", h, err)
	}
	var row DestResult
	if err := json.Unmarshal(readLine(t, br), &row); err != nil || row.Dest != 0 {
		t.Fatalf("first row = %+v (%v), want dest 0", row, err)
	}
	select {
	case <-gt.reached:
	default:
		t.Fatal("first row arrived before the sweep reached destination 1")
	}
	gt.open()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(rest, []byte("\n")); lines != g.N {
		t.Errorf("%d lines after the first row, want %d rows and the trailer", lines, g.N)
	}
}

// TestSessionFirstRowFlushed: the first row of a generation reaches the
// stream while the runner is still blocked before the second destination.
func TestSessionFirstRowFlushed(t *testing.T) {
	srv := New(Config{Workers: 1})
	gt := newGate(1)
	defer gt.open()
	srv.hookBeforeSolve = gt.hook
	ts := startServer(t, srv)
	g := graph.GenRandomConnected(8, 0.4, 9, 11)

	sc, code, er := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, g), AllDests: true})
	if code != http.StatusOK {
		t.Fatalf("create: %d %v", code, er)
	}
	defer deleteSession(t, ts, sc.SessionID) // lets the stream end if the test fails
	gt.wait(t)
	ch := openSessionStream(t, ts, sc.SessionID)
	if l, ok := nextLine(t, ch); !ok || l.header == nil {
		t.Fatalf("first line = %+v, want the header", l)
	}
	l, ok := nextLine(t, ch)
	if !ok || l.row == nil || l.row.Seq != 0 || l.row.Dest != 0 {
		t.Fatalf("second line = %+v, want the seq 0 row for dest 0", l)
	}
	gt.open()
	dests := make([]int, g.N)
	for d := range dests {
		dests[d] = d
	}
	rows := []DestResult{l.row.DestResult}
	for len(rows) < g.N {
		l, ok := nextLine(t, ch)
		if !ok || l.row == nil {
			t.Fatalf("line %d = %+v, want a row", len(rows), l)
		}
		rows = append(rows, l.row.DestResult)
	}
	checkResponse(t, g, &SolveResponse{N: g.N, Results: rows}, dests)
	if l, ok := nextLine(t, ch); !ok || l.trailer == nil || l.trailer.Rows != g.N {
		t.Fatalf("line after the rows = %+v, want the trailer", l)
	}
	if code := deleteSession(t, ts, sc.SessionID); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if l, ok := nextLine(t, ch); !ok || l.closed == nil {
		t.Fatalf("last line = %+v, want the closed line", l)
	}
}

// smallBufListener shrinks every accepted connection's send buffer, so a
// reader that stops reading blocks the server's writes after a few KB.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// stalledClient opens a raw TCP connection with a small receive buffer,
// sends one request and never reads the reply.
func stalledClient(t *testing.T, ts *httptest.Server, method, path, body string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		method, path, len(body), body)
	return conn
}

func startSmallBufServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener = smallBufListener{ts.Listener}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return ts
}

// bigTable is a generator spec whose all-pairs table (~0.7 MB of NDJSON)
// is far larger than the socket buffers between server and client.
const bigTable = `{"gen":"connected","n":256,"density":0.5,"maxw":1000000,"seed":3}`

// TestAllPairsStalledReader: a client that never reads its table cannot
// hold the sweep, the pooled session and the only worker slot past its
// request deadline, which is also the stream's write deadline.
func TestAllPairsStalledReader(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := startSmallBufServer(t, srv)
	conn := stalledClient(t, ts, "POST", "/v1/allpairs", `{"gen":`+bigTable+`,"timeout_ms":300}`)
	defer conn.Close()

	want := `ppaserved_requests_total{path="/v1/allpairs",code="200"} 1`
	waitFor(t, "the stalled stream's handler to return", func() bool {
		return strings.Contains(metricsText(t, ts), want)
	})
	g := graph.GenRandomConnected(8, 0.4, 9, 13)
	code, sr, er, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{Graph: rawGraph(t, g), Dests: []int{1}, TimeoutMS: 5000})
	if code != http.StatusOK {
		t.Fatalf("solve after the stalled stream: status %d (%v), want 200", code, er)
	}
	checkResponse(t, g, sr, []int{1})
}

// TestSessionStalledReader: a session stream whose reader stops reading
// returns once a write has waited SessionIdleTimeout.
func TestSessionStalledReader(t *testing.T) {
	srv := New(Config{Workers: 1, SessionIdleTimeout: 300 * time.Millisecond})
	ts := startSmallBufServer(t, srv)
	sc, code, er := createSession(t, ts, SessionCreateRequest{Gen: json.RawMessage(bigTable), AllDests: true})
	if code != http.StatusOK {
		t.Fatalf("create: %d %v", code, er)
	}
	conn := stalledClient(t, ts, "GET", "/v1/session/"+sc.SessionID+"/stream", "")
	defer conn.Close()

	want := `ppaserved_requests_total{path="/v1/session/stream",code="200"} 1`
	waitFor(t, "the stalled stream's handler to return", func() bool {
		return strings.Contains(metricsText(t, ts), want)
	})
}
