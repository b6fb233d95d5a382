package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ppamcp/internal/graph"
)

// sessLine is one parsed NDJSON line of a session stream, classified by
// its discriminating key.
type sessLine struct {
	header  *SessionHeader
	row     *SessionRow
	trailer *SessionTrailer
	errLine *ErrorResponse
	closed  *SessionClosed
}

// openSessionStream connects GET /v1/session/{id}/stream and pumps the
// parsed lines into the returned channel, which closes when the stream
// ends. The first line (the header) is checked here.
func openSessionStream(t *testing.T, ts *httptest.Server, id string) <-chan sessLine {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/session/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		t.Fatalf("GET stream: status %d: %s", resp.StatusCode, er.Error)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	ch := make(chan sessLine, 1024)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		first := true
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var probe struct {
				SessionID *string `json:"session_id"`
				Closed    *bool   `json:"closed"`
				Error     *string `json:"error"`
				Rows      *int    `json:"rows"`
				Dest      *int    `json:"dest"`
			}
			if err := json.Unmarshal(line, &probe); err != nil {
				return
			}
			var out sessLine
			switch {
			case first && probe.SessionID != nil:
				h := new(SessionHeader)
				_ = json.Unmarshal(line, h)
				out.header = h
			case probe.Error != nil:
				out.errLine = &ErrorResponse{Error: *probe.Error}
			case probe.Closed != nil:
				c := new(SessionClosed)
				_ = json.Unmarshal(line, c)
				out.closed = c
			case probe.Dest != nil:
				r := new(SessionRow)
				_ = json.Unmarshal(line, r)
				out.row = r
			default:
				tr := new(SessionTrailer)
				_ = json.Unmarshal(line, tr)
				out.trailer = tr
			}
			first = false
			ch <- out
		}
	}()
	return ch
}

// nextLine reads one stream line with a timeout.
func nextLine(t *testing.T, ch <-chan sessLine) (sessLine, bool) {
	t.Helper()
	select {
	case l, ok := <-ch:
		return l, ok
	case <-time.After(15 * time.Second):
		t.Fatal("timed out waiting for a stream line")
		return sessLine{}, false
	}
}

// collectGeneration reads one full re-solve generation (rows + trailer)
// and verifies every row against Bellman-Ford on the mirror graph.
func collectGeneration(t *testing.T, ch <-chan sessLine, mirror *graph.Graph, seq uint64, dests []int) *SessionTrailer {
	t.Helper()
	rows := make([]DestResult, 0, len(dests))
	for {
		l, ok := nextLine(t, ch)
		if !ok {
			t.Fatalf("seq %d: stream ended after %d rows", seq, len(rows))
		}
		if l.errLine != nil {
			t.Fatalf("seq %d: stream error: %s", seq, l.errLine.Error)
		}
		if l.row != nil {
			if l.row.Seq != seq {
				t.Fatalf("row seq = %d, want %d", l.row.Seq, seq)
			}
			rows = append(rows, l.row.DestResult)
			continue
		}
		if l.trailer == nil {
			t.Fatalf("seq %d: unexpected line %+v", seq, l)
		}
		if l.trailer.Seq != seq || l.trailer.Rows != len(dests) {
			t.Fatalf("trailer = %+v, want seq %d with %d rows", l.trailer, seq, len(dests))
		}
		checkResponse(t, mirror, &SolveResponse{N: mirror.N, Results: rows}, dests)
		return l.trailer
	}
}

func createSession(t *testing.T, ts *httptest.Server, req SessionCreateRequest) (*SessionCreated, int, *ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return nil, resp.StatusCode, &er
	}
	var sc SessionCreated
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	return &sc, resp.StatusCode, nil
}

func postUpdate(t *testing.T, ts *httptest.Server, id string, ups []WireUpdate) (*UpdateAccepted, int, *ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(SessionUpdateRequest{Updates: ups})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/session/"+id+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return nil, resp.StatusCode, &er
	}
	var ua UpdateAccepted
	if err := json.NewDecoder(resp.Body).Decode(&ua); err != nil {
		t.Fatal(err)
	}
	return &ua, resp.StatusCode, nil
}

func deleteSession(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestSessionE2E is the dynamic-graph acceptance test: create a session,
// receive the creation-time rows, stream a sequence of weight-delta
// batches through it with every re-solved generation verified against
// Bellman-Ford on a client-side mirror, then close it gracefully and see
// the closed line and a pool return.
func TestSessionE2E(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		leakCheck(t, baseGoroutines)
	}()

	g := graph.GenRandomConnected(24, 0.2, 25, 9)
	mirror := g.Clone()
	dests := []int{0, 11, 23}
	sc, code, er := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, g), Dests: dests})
	if code != http.StatusOK {
		t.Fatalf("create: status %d (%v)", code, er)
	}
	if sc.N != g.N || len(sc.SessionID) == 0 {
		t.Fatalf("created = %+v", sc)
	}

	ch := openSessionStream(t, ts, sc.SessionID)
	l, _ := nextLine(t, ch)
	if l.header == nil || l.header.SessionID != sc.SessionID {
		t.Fatalf("first line = %+v, want header for %s", l, sc.SessionID)
	}
	collectGeneration(t, ch, mirror, 0, dests)

	// A second stream consumer is rejected while this one lives.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/session/"+sc.SessionID+"/stream", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second stream: status %d, want 409", resp.StatusCode)
	}

	// Stream update batches: inserts, deletions, weight changes.
	batches := [][]WireUpdate{
		{{U: 0, V: 11, W: 1}},
		{{U: 0, V: 11, W: -1}, {U: 3, V: 23, W: 2}},
		{{U: 5, V: 6, W: 0}, {U: 6, V: 7, W: 4}, {U: 3, V: 23, W: 9}},
	}
	var warmIter, firstIter int
	for bi, b := range batches {
		ua, code, er := postUpdate(t, ts, sc.SessionID, b)
		if code != http.StatusOK {
			t.Fatalf("update %d: status %d (%v)", bi, code, er)
		}
		if ua.Seq != uint64(bi+1) {
			t.Fatalf("update %d: seq %d, want %d", bi, ua.Seq, bi+1)
		}
		ups := make([]graph.WeightUpdate, len(b))
		for i, u := range b {
			w := u.W
			if w == -1 {
				w = graph.NoEdge
			}
			ups[i] = graph.WeightUpdate{U: u.U, V: u.V, W: w}
		}
		if err := mirror.Apply(ups); err != nil {
			t.Fatal(err)
		}
		tr := collectGeneration(t, ch, mirror, ua.Seq, dests)
		if bi == 0 {
			firstIter = tr.Iterations
		}
		warmIter = tr.Iterations
	}
	if warmIter <= 0 || firstIter <= 0 {
		t.Fatalf("trailers reported no iterations")
	}

	if code := deleteSession(t, ts, sc.SessionID); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	for {
		l, ok := nextLine(t, ch)
		if !ok {
			t.Fatal("stream ended without a closed line")
		}
		if l.closed != nil {
			if !l.closed.Closed {
				t.Fatalf("closed line = %+v", l.closed)
			}
			break
		}
	}
	// The id is gone for every verb.
	if _, code, _ := postUpdate(t, ts, sc.SessionID, batches[0]); code != http.StatusNotFound {
		t.Fatalf("update after close: status %d, want 404", code)
	}
	if code := deleteSession(t, ts, sc.SessionID); code != http.StatusNotFound {
		t.Fatalf("delete after close: status %d, want 404", code)
	}
}

// TestSessionValidationAndQuotas covers the admission envelope: bad
// bodies and edits answer 400 synchronously, unknown ids 404, the session
// cap and a full update queue 429 with Retry-After (1.5s rounded up to
// whole seconds). A gate holds the runner in its creation-time solve, so
// accepted updates stay queued.
func TestSessionValidationAndQuotas(t *testing.T) {
	srv := New(Config{Workers: 1, MaxSessions: 1, MaxSessionDests: 2, SessionQueueDepth: 1, RetryAfter: 1500 * time.Millisecond})
	gt := newGate(0)
	defer gt.open()
	srv.hookBeforeSolve = gt.hook
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		gt.open()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	g := graph.GenRandomConnected(8, 0.4, 9, 2)
	for _, bad := range []SessionCreateRequest{
		{Graph: rawGraph(t, g)},                                // no dests
		{Graph: rawGraph(t, g), Dests: []int{0, 1, 2}},         // too many dests
		{Graph: rawGraph(t, g), Dests: []int{8}},               // dest out of range
		{Dests: []int{0}},                                      // no graph
		{Graph: json.RawMessage(`{"n": -3}`), Dests: []int{0}}, // junk graph
	} {
		if _, code, _ := createSession(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("create %+v: status %d, want 400", bad, code)
		}
	}

	sc, code, er := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, g), Dests: []int{0}, Bits: 10})
	if code != http.StatusOK {
		t.Fatalf("create: status %d (%v)", code, er)
	}
	resp := recv(t, goPost(ts, "/v1/session", SessionCreateRequest{Graph: rawGraph(t, g), Dests: []int{0}}))
	if code, retry := resp.StatusCode, resp.Header.Get("Retry-After"); code != http.StatusTooManyRequests || retry != "2" {
		t.Fatalf("create over cap: status %d, Retry-After %q; want 429 with Retry-After 2", code, retry)
	}

	for _, bad := range [][]WireUpdate{
		nil,                        // empty batch
		{{U: 0, V: 8, W: 1}},       // endpoint out of range
		{{U: 0, V: 1, W: -2}},      // negative weight that is not -1
		{{U: 0, V: 1, W: 1 << 40}}, // too wide for 10-bit words
	} {
		if _, code, _ := postUpdate(t, ts, sc.SessionID, bad); code != http.StatusBadRequest {
			t.Fatalf("update %+v: status %d, want 400", bad, code)
		}
	}
	if _, code, _ := postUpdate(t, ts, "deadbeef", []WireUpdate{{U: 0, V: 1, W: 1}}); code != http.StatusNotFound {
		t.Fatalf("update unknown id: status %d, want 404", code)
	}
	if _, code, er := postUpdate(t, ts, sc.SessionID, []WireUpdate{{U: 0, V: 1, W: 1}}); code != http.StatusOK {
		t.Fatalf("update: status %d (%v)", code, er)
	}
	resp = recv(t, goPost(ts, "/v1/session/"+sc.SessionID+"/update", SessionUpdateRequest{Updates: []WireUpdate{{U: 0, V: 1, W: 2}}}))
	if code, retry := resp.StatusCode, resp.Header.Get("Retry-After"); code != http.StatusTooManyRequests || retry != "2" {
		t.Fatalf("update over the queue: status %d, Retry-After %q; want 429 with Retry-After 2", code, retry)
	}
	gt.open()
	if code := deleteSession(t, ts, sc.SessionID); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
}

// TestSessionIdleEviction: an abandoned session is collected by the
// janitor and its id stops resolving.
func TestSessionIdleEviction(t *testing.T) {
	srv := New(Config{Workers: 1, SessionIdleTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	g := graph.GenRandomConnected(8, 0.4, 9, 3)
	sc, code, er := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, g), Dests: []int{0}})
	if code != http.StatusOK {
		t.Fatalf("create: status %d (%v)", code, er)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, code, _ := postUpdate(t, ts, sc.SessionID, []WireUpdate{{U: 0, V: 1, W: 1}}); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSessionPanicIsolation: a panic while re-solving poisons only that
// session — its stream ends with an in-band error line, its fabric is
// not repooled, and the server keeps serving.
func TestSessionPanicIsolation(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	g := graph.GenRandomConnected(8, 0.4, 9, 4)
	sc, code, er := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, g), Dests: []int{2}})
	if code != http.StatusOK {
		t.Fatalf("create: status %d (%v)", code, er)
	}
	ch := openSessionStream(t, ts, sc.SessionID)
	l, _ := nextLine(t, ch)
	if l.header == nil {
		t.Fatalf("first line = %+v", l)
	}
	collectGeneration(t, ch, g, 0, []int{2})

	armed := true
	srv.hookBeforeSolve = func(dest int) {
		if armed {
			armed = false
			panic(fmt.Sprintf("injected session panic at dest %d", dest))
		}
	}
	if _, code, er := postUpdate(t, ts, sc.SessionID, []WireUpdate{{U: 0, V: 2, W: 1}}); code != http.StatusOK {
		t.Fatalf("update: status %d (%v)", code, er)
	}
	sawError := false
	for {
		l, ok := nextLine(t, ch)
		if !ok {
			break
		}
		if l.errLine != nil {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("poisoned stream ended without an error line")
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.sessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("poisoned session not removed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.hookBeforeSolve = nil

	// The rest of the service is unharmed: a fresh session works.
	sc2, code, er := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, g), Dests: []int{2}})
	if code != http.StatusOK {
		t.Fatalf("create after panic: status %d (%v)", code, er)
	}
	ch2 := openSessionStream(t, ts, sc2.SessionID)
	if l, _ := nextLine(t, ch2); l.header == nil {
		t.Fatalf("first line = %+v", l)
	}
	collectGeneration(t, ch2, g, 0, []int{2})
	if code := deleteSession(t, ts, sc2.SessionID); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
}

// TestSessionShutdownDrain: server shutdown finishes the accepted update
// work and ends every stream with a closed line.
func TestSessionShutdownDrain(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g := graph.GenRandomConnected(12, 0.3, 9, 6)
	mirror := g.Clone()
	dests := []int{0, 5}
	sc, code, er := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, g), Dests: dests})
	if code != http.StatusOK {
		t.Fatalf("create: status %d (%v)", code, er)
	}
	ch := openSessionStream(t, ts, sc.SessionID)
	if l, _ := nextLine(t, ch); l.header == nil {
		t.Fatalf("first line = %+v", l)
	}
	collectGeneration(t, ch, mirror, 0, dests)
	ua, code, er := postUpdate(t, ts, sc.SessionID, []WireUpdate{{U: 0, V: 5, W: 1}})
	if code != http.StatusOK {
		t.Fatalf("update: status %d (%v)", code, er)
	}
	if err := mirror.Apply([]graph.WeightUpdate{{U: 0, V: 5, W: 1}}); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// The accepted batch's rows still arrive, then the closed line.
	collectGeneration(t, ch, mirror, ua.Seq, dests)
	sawClosed := false
	for {
		l, ok := nextLine(t, ch)
		if !ok {
			break
		}
		if l.closed != nil {
			sawClosed = true
		}
	}
	if !sawClosed {
		t.Fatal("drained stream ended without a closed line")
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	// Post-shutdown, session creation is refused.
	if _, code, _ := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, g), Dests: []int{0}}); code != http.StatusServiceUnavailable {
		t.Fatalf("create after shutdown: status %d, want 503", code)
	}
}

// TestSessionAllDests: a session created with "dests": "all" tracks every
// destination — the created body names 0..n-1, generation 0 carries the
// full table, and a warm generation after a batch is re-verified row by
// row. A no-op generation (an update that changes nothing reachable)
// still streams n rows but the trailer shows the skip-converged fast
// path: zero iterations.
func TestSessionAllDests(t *testing.T) {
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

	g := graph.GenRandomConnected(12, 0.3, 15, 21)
	mirror := g.Clone()
	sc, code, er := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, g), AllDests: true})
	if code != http.StatusOK {
		t.Fatalf("create: status %d (%v)", code, er)
	}
	if len(sc.Dests) != g.N {
		t.Fatalf("created dests = %v, want 0..%d", sc.Dests, g.N-1)
	}
	for d, v := range sc.Dests {
		if v != d {
			t.Fatalf("created dests[%d] = %d", d, v)
		}
	}

	ch := openSessionStream(t, ts, sc.SessionID)
	if l, _ := nextLine(t, ch); l.header == nil {
		t.Fatalf("first line = %+v, want header", l)
	}
	collectGeneration(t, ch, mirror, 0, sc.Dests)

	// A real edit: every row re-verified against the mirror.
	ups := []WireUpdate{{U: 0, V: 5, W: 1}, {U: 7, V: 2, W: -1}}
	ua, code, er := postUpdate(t, ts, sc.SessionID, ups)
	if code != http.StatusOK {
		t.Fatalf("update: status %d (%v)", code, er)
	}
	gu := make([]graph.WeightUpdate, len(ups))
	for i, u := range ups {
		w := u.W
		if w == -1 {
			w = graph.NoEdge
		}
		gu[i] = graph.WeightUpdate{U: u.U, V: u.V, W: w}
	}
	if err := mirror.Apply(gu); err != nil {
		t.Fatal(err)
	}
	collectGeneration(t, ch, mirror, ua.Seq, sc.Dests)

	// Re-post the same weights: nothing changes, so every destination is
	// untouched by the delta and the whole generation is emitted from
	// retained rows without running the DP.
	ua, code, er = postUpdate(t, ts, sc.SessionID, ups)
	if code != http.StatusOK {
		t.Fatalf("no-op update: status %d (%v)", code, er)
	}
	tr := collectGeneration(t, ch, mirror, ua.Seq, sc.Dests)
	if tr.Iterations != 0 || tr.Cost.PEOps != 0 {
		t.Fatalf("no-op generation trailer = %+v, want zero iterations and cost", tr)
	}

	if code := deleteSession(t, ts, sc.SessionID); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
}

// TestSessionAllDestsAdmission: "all" is bounded by MaxDests, unknown
// dests keywords are rejected at decode time, and duplicate explicit
// dests are refused.
func TestSessionAllDestsAdmission(t *testing.T) {
	srv := New(Config{Workers: 1, MaxVertices: 64, MaxDests: 8, MaxSessionDests: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	big := graph.GenChain(12, 3) // within MaxVertices, "all" beyond MaxDests
	if _, code, _ := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, big), AllDests: true}); code != http.StatusBadRequest {
		t.Fatalf(`create "all" over MaxDests: status %d, want 400`, code)
	}

	small := graph.GenChain(6, 3)
	if _, code, _ := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, small), Dests: []int{2, 0, 2}}); code != http.StatusBadRequest {
		t.Fatalf("create duplicate dests: status %d, want 400", code)
	}

	// "all" names more destinations than MaxSessionDests allows for an
	// explicit list — the keyword is bounded by MaxDests instead.
	sc, code, er := createSession(t, ts, SessionCreateRequest{Graph: rawGraph(t, small), AllDests: true})
	if code != http.StatusOK {
		t.Fatalf(`create "all": status %d (%v)`, code, er)
	}
	if len(sc.Dests) != small.N {
		t.Fatalf("created dests = %v, want all %d", sc.Dests, small.N)
	}
	if code := deleteSession(t, ts, sc.SessionID); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}

	body := fmt.Sprintf(`{"graph": %s, "dests": "everything"}`, rawGraph(t, small))
	resp, err := ts.Client().Post(ts.URL+"/v1/session", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown dests keyword: status %d, want 400", resp.StatusCode)
	}
}
