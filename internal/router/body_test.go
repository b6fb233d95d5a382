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
// ErrorResponse: the size alone is at fault). The graph-carrying
// endpoints also get bodies with one admission fault each, which every
// one of them refuses with the same status; ppaserved and pparouter
// /v1/solve also answer every refusal with the same ErrorResponse text,
// since both apply one admission rule.
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
	graphMember := `"graph":` + string(gj)
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

	// A graph-carrying endpoint's body is {graph member, dests member};
	// the others give theirs whole.
	endpoints := []struct{ name, url, dests, body string }{
		{"ppaserved /v1/solve", backend.URL + "/v1/solve", `,"dests":[1]`, ""},
		{"ppaserved /v1/allpairs", backend.URL + "/v1/allpairs", "", ""},
		{"ppaserved /v1/session", backend.URL + "/v1/session", `,"dests":[0]`, ""},
		{"ppaserved /v1/session/{id}/update", backend.URL + "/v1/session/" + sc.SessionID + "/update", "", `{"updates":[{"u":0,"v":1,"w":2}]}`},
		{"pparouter /v1/solve", front.URL + "/v1/solve", `,"dests":[2]`, ""},
	}
	bodies := []struct {
		name string
		pad  func(string) string
		// graph and dests, when set, replace a graph-carrying body's
		// member; a row that sets either is for those endpoints only.
		graph, dests string
		want         int
	}{
		{name: "valid", pad: func(b string) string { return b + "\n" }, want: http.StatusOK},
		{name: "trailing data", pad: func(b string) string { return b + " garbage" }, want: http.StatusBadRequest},
		{name: "trailing value", pad: func(b string) string { return b + "{}" }, want: http.StatusBadRequest},
		{name: "oversized", pad: func(b string) string { return b + strings.Repeat(" ", limit) }, want: http.StatusRequestEntityTooLarge},
		{name: "both graph and gen", graph: graphMember + `,"gen":{"gen":"chain","n":4}`, want: http.StatusBadRequest},
		{name: "neither graph nor gen", graph: `"bits":8`, want: http.StatusBadRequest},
		{name: "n over MaxVertices", graph: `"graph":{"n":513,"edges":[]}`, want: http.StatusBadRequest},
		// The decoder refuses a negative weight before Validate sees it:
		// no wire body builds a graph Validate refuses.
		{name: "negative weight", graph: `"graph":{"n":6,"edges":[[0,1,-3]]}`, want: http.StatusBadRequest},
		{name: "weights too wide for bits", graph: graphMember + `,"bits":4`, want: http.StatusBadRequest},
		{name: "dest out of range", dests: `,"dests":[6]`, want: http.StatusBadRequest},
	}
	texts := make(map[string]map[string]string) // row -> endpoint -> error
	for _, ep := range endpoints {
		for _, b := range bodies {
			body := ep.body
			if body == "" {
				graph, dests := graphMember, ep.dests
				if b.graph != "" {
					graph = b.graph
				}
				if b.dests != "" {
					dests = b.dests
				}
				body = "{" + graph + dests + "}"
			} else if b.pad == nil {
				continue
			}
			if b.pad != nil {
				body = b.pad(body)
			}
			t.Run(ep.name+"/"+b.name, func(t *testing.T) {
				resp, err := http.Post(ep.url, "application/json", bytes.NewReader([]byte(body)))
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
				if texts[b.name] == nil {
					texts[b.name] = make(map[string]string)
				}
				texts[b.name][ep.name] = er.Error
			})
		}
	}
	for _, b := range bodies {
		if backendText, routerText := texts[b.name]["ppaserved /v1/solve"], texts[b.name]["pparouter /v1/solve"]; backendText != routerText {
			t.Errorf("%s: ppaserved /v1/solve answered %q, pparouter /v1/solve %q", b.name, backendText, routerText)
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
