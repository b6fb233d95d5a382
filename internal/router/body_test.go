package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ppamcp/internal/graph"
	"ppamcp/internal/serve"
)

// TestRequestBodyEndpoints drives every body-reading endpoint of
// ppaserved and pparouter with a valid body, the same body followed by
// trailing data (400: a body is exactly one JSON value), and the same
// body padded past MaxBodyBytes with whitespace (413 with an
// ErrorResponse: the size alone is at fault).
func TestRequestBodyEndpoints(t *testing.T) {
	const limit = 2048
	backend, _ := startServeBackend(t, serve.Config{MaxBodyBytes: limit})
	rt := newTestRouter(t, Config{MaxBodyBytes: limit}, backend.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	gj, err := json.Marshal(graph.GenRandomConnected(6, 0.5, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	session := fmt.Sprintf(`{"graph":%s,"dests":[0]}`, gj)
	resp, err := backend.Client().Post(backend.URL+"/v1/session", "application/json", strings.NewReader(session))
	if err != nil {
		t.Fatal(err)
	}
	var sc serve.SessionCreated
	err = json.NewDecoder(resp.Body).Decode(&sc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d, %v", resp.StatusCode, err)
	}

	endpoints := []struct{ name, url, body string }{
		{"ppaserved /v1/solve", backend.URL + "/v1/solve", fmt.Sprintf(`{"graph":%s,"dests":[1]}`, gj)},
		{"ppaserved /v1/allpairs", backend.URL + "/v1/allpairs", fmt.Sprintf(`{"graph":%s}`, gj)},
		{"ppaserved /v1/session", backend.URL + "/v1/session", session},
		{"ppaserved /v1/session/{id}/update", backend.URL + "/v1/session/" + sc.SessionID + "/update", `{"updates":[{"u":0,"v":1,"w":2}]}`},
		{"pparouter /v1/solve", front.URL + "/v1/solve", fmt.Sprintf(`{"graph":%s,"dests":[2]}`, gj)},
	}
	bodies := []struct {
		name string
		pad  func(string) string
		want int
	}{
		{"valid", func(b string) string { return b + "\n" }, http.StatusOK},
		{"trailing data", func(b string) string { return b + " garbage" }, http.StatusBadRequest},
		{"trailing value", func(b string) string { return b + "{}" }, http.StatusBadRequest},
		{"oversized", func(b string) string { return b + strings.Repeat(" ", limit) }, http.StatusRequestEntityTooLarge},
	}
	for _, ep := range endpoints {
		for _, b := range bodies {
			t.Run(ep.name+"/"+b.name, func(t *testing.T) {
				resp, err := http.Post(ep.url, "application/json", bytes.NewReader([]byte(b.pad(ep.body))))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != b.want {
					t.Fatalf("status %d, want %d", resp.StatusCode, b.want)
				}
				if b.want == http.StatusOK {
					return
				}
				var er serve.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
					t.Fatalf("error body: %+v, %v", er, err)
				}
			})
		}
	}
}

// TestTricklingBodyEndpoints opens a raw TCP connection to every
// body-reading endpoint of ppaserved and pparouter, declares a 100 KB
// body and trickles it one byte of whitespace every 20 ms. Each must
// answer 400 with an ErrorResponse once its DefaultTimeout has passed,
// instead of holding the handler for as long as the client trickles.
func TestTricklingBodyEndpoints(t *testing.T) {
	const timeout = 200 * time.Millisecond
	backend, _ := startServeBackend(t, serve.Config{DefaultTimeout: timeout})
	rt := newTestRouter(t, Config{DefaultTimeout: timeout}, backend.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	gj, err := json.Marshal(graph.GenRandomConnected(6, 0.5, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(backend.URL+"/v1/session", "application/json", strings.NewReader(fmt.Sprintf(`{"graph":%s,"dests":[0]}`, gj)))
	if err != nil {
		t.Fatal(err)
	}
	var sc serve.SessionCreated
	err = json.NewDecoder(resp.Body).Decode(&sc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d, %v", resp.StatusCode, err)
	}

	for _, ep := range []struct{ name, base, path string }{
		{"ppaserved /v1/solve", backend.URL, "/v1/solve"},
		{"ppaserved /v1/allpairs", backend.URL, "/v1/allpairs"},
		{"ppaserved /v1/session", backend.URL, "/v1/session"},
		{"ppaserved /v1/session/{id}/update", backend.URL, "/v1/session/" + sc.SessionID + "/update"},
		{"pparouter /v1/solve", front.URL, "/v1/solve"},
	} {
		t.Run(ep.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", strings.TrimPrefix(ep.base, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 100000\r\n\r\n{", ep.path)
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				tick := time.NewTicker(20 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						if _, err := conn.Write([]byte(" ")); err != nil {
							return
						}
					}
				}
			}()
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("no answer while the body trickled: %v", err)
			}
			defer resp.Body.Close()
			var er serve.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, body %+v (%v), want 400 with an error", resp.StatusCode, er, err)
			}
		})
	}
}
