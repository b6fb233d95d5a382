package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ppamcp/internal/graph"
	"ppamcp/internal/serve"
)

// rawBackend is a backend written on raw TCP: it answers /healthz with
// 200 and hands every /v1/solve connection to solve, which may write
// any bytes it likes and then hold the connection open until the test
// ends.
func rawBackend(t *testing.T, solve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(done)
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				go func() { <-done; conn.Close() }()
				br := bufio.NewReader(conn)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					if req.URL.Path != "/v1/solve" {
						fmt.Fprint(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\r\n{\"status\":\"ok\"}")
						continue
					}
					solve(conn)
					<-done
					return
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestRouterHangingBackend: a backend that accepts the solve and never
// answers, and one that sends its headers and then stalls mid-body, are
// both cut at the request's deadline plus the router's 250 ms grace and
// answered 504, with nothing cached.
func TestRouterHangingBackend(t *testing.T) {
	const (
		timeout = 200 * time.Millisecond
		grace   = 250 * time.Millisecond
		slack   = 250 * time.Millisecond
	)
	for _, c := range []struct {
		name  string
		solve func(net.Conn)
	}{
		{"no answer", func(net.Conn) {}},
		{"stalled body", func(conn net.Conn) {
			fmt.Fprint(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"n\":2,")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := newTestRouter(t, Config{RetryBudget: -1}, rawBackend(t, c.solve))
			front := httptest.NewServer(rt.Handler())
			defer front.Close()
			front.Client().Timeout = 10 * time.Second

			body := fmt.Sprintf(`{"graph":{"n":2,"edges":[[0,1,3]]},"dests":[1],"timeout_ms":%d}`, timeout.Milliseconds())
			start := time.Now()
			resp, data := postRouter(t, front, []byte(body))
			el := time.Since(start)
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Errorf("status %d (%s), want 504", resp.StatusCode, data)
			}
			if el < timeout || el > timeout+grace+slack {
				t.Errorf("answered after %v, want within %v of a %v deadline", el, grace, timeout)
			}
			if cs, _ := rt.CacheStats(); cs.Entries != 0 {
				t.Errorf("cached %d entries from a hanging backend", cs.Entries)
			}
		})
	}
}

// TestRouterOversizedUpstreamResponse: a 200 body longer than
// MaxResponseBytes is answered 502, not relayed cut short, and is not
// cached; one that fits is relayed whole.
func TestRouterOversizedUpstreamResponse(t *testing.T) {
	ts, _ := startServeBackend(t, serve.Config{})
	small := solveBody(t, graph.GenChain(4, 3), 0)
	big := solveBody(t, graph.GenChain(4, 3), 0, 1, 2, 3)

	// Learn the two answers' sizes straight from the backend.
	resp, smallAnswer := postRouter(t, ts, small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backend: status %d (%s)", resp.StatusCode, smallAnswer)
	}
	resp, bigAnswer := postRouter(t, ts, big)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backend: status %d (%s)", resp.StatusCode, bigAnswer)
	}

	limit := int64(len(smallAnswer) + 16)
	if int64(len(bigAnswer)) <= limit {
		t.Fatalf("answers of %d and %d bytes do not straddle the bound", len(smallAnswer), len(bigAnswer))
	}
	rt := newTestRouter(t, Config{MaxResponseBytes: limit}, ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, data := postRouter(t, front, small)
	var sr serve.SolveResponse
	if err := json.Unmarshal(data, &sr); resp.StatusCode != http.StatusOK || err != nil || len(sr.Results) != 1 {
		t.Errorf("answer within the bound: status %d (%s), want 200 with one result", resp.StatusCode, data)
	}
	for i := 0; i < 2; i++ {
		resp, data = postRouter(t, front, big)
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(data), "more than") {
			t.Errorf("try %d: answer past the bound: status %d (%s), want 502", i, resp.StatusCode, data)
		}
		if src := resp.Header.Get("X-Ppa-Cache"); src == "hit" {
			t.Errorf("try %d: oversized answer served from the cache", i)
		}
	}
	if cs, _ := rt.CacheStats(); cs.Entries != 1 {
		t.Errorf("cache holds %d entries, want only the answer within the bound", cs.Entries)
	}
}
