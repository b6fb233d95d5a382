package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ppamcp/internal/serve"
)

// TestSelfServeSmoke runs the full closed loop in-process: spin up a
// server, hammer it with a handful of clients, and require every
// response verified against Bellman-Ford.
func TestSelfServeSmoke(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-selfserve", "-gen", "connected", "-n", "16", "-seed", "11",
		"-c", "8", "-requests", "3", "-dests", "2", "-json",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	var sum Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("summary not JSON: %v\noutput:\n%s", err, buf.String())
	}
	if sum.Requests != 24 || sum.OK != 24 || sum.Verified != 24 {
		t.Errorf("requests/ok/verified = %d/%d/%d, want 24/24/24",
			sum.Requests, sum.OK, sum.Verified)
	}
	if sum.Errors != 0 {
		t.Errorf("errors = %d, want 0", sum.Errors)
	}
	if sum.Solves != 48 {
		t.Errorf("dest solves = %d, want 48", sum.Solves)
	}
	if sum.Throughput <= 0 {
		t.Errorf("throughput = %v, want > 0", sum.Throughput)
	}
	if sum.N != 16 {
		t.Errorf("n = %d, want 16", sum.N)
	}
}

// TestSelfServeInline sends the graph inline rather than as a spec; the
// human-readable report should show full verification.
func TestSelfServeInline(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-selfserve", "-gen", "grid", "-rows", "3", "-cols", "4", "-seed", "2",
		"-c", "4", "-requests", "2", "-inline",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "verified 8/8 responses") {
		t.Errorf("output missing full verification:\n%s", out)
	}
	if !strings.Contains(out, "8 ok, ") {
		t.Errorf("output missing ok count:\n%s", out)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                                    // neither -url nor -selfserve
		{"-url", "http://x", "-selfserve"},    // both
		{"-selfserve", "-c", "0"},             // bad client count
		{"-selfserve", "-requests", "-1"},     // bad request count
		{"-selfserve", "-n", "0"},             // bad workload (via Build)
		{"-url", "http://x", "-density", "7"}, // bad workload (via Build)
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestTargetsRoundRobin spreads clients over two real in-process
// servers via -targets and requires both to see traffic.
func TestTargetsRoundRobin(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		svc := serve.New(serve.Config{Workers: 1, MaxVertices: 16})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln)
		addrs = append(addrs, "http://"+ln.Addr().String())
		defer func() {
			stopServer(srv)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		}()
	}

	var buf bytes.Buffer
	err := run([]string{
		"-targets", strings.Join(addrs, ","),
		"-gen", "connected", "-n", "12", "-seed", "3",
		"-c", "4", "-requests", "3", "-dests", "1", "-json",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	var sum Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("summary not JSON: %v\noutput:\n%s", err, buf.String())
	}
	if sum.OK != 12 || sum.Verified != 12 {
		t.Errorf("ok/verified = %d/%d, want 12/12", sum.OK, sum.Verified)
	}
	if sum.Target != strings.Join(addrs, ",") {
		t.Errorf("target = %q, want both addresses", sum.Target)
	}
}

// TestMultiGraphZipf rotates over several graphs with a Zipf skew
// against a single self-served backend: every response must still
// verify against the right graph's reference.
func TestMultiGraphZipf(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-selfserve", "-gen", "connected", "-n", "12", "-seed", "5",
		"-graphs", "4", "-zipf", "1.4",
		"-c", "4", "-requests", "4", "-dests", "1", "-json",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	var sum Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("summary not JSON: %v\noutput:\n%s", err, buf.String())
	}
	if sum.OK != 16 || sum.Verified != 16 {
		t.Errorf("ok/verified = %d/%d, want 16/16", sum.OK, sum.Verified)
	}
	if sum.Graphs != 4 || sum.Zipf != 1.4 {
		t.Errorf("graphs/zipf = %d/%v, want 4/1.4", sum.Graphs, sum.Zipf)
	}
}

// TestFleetSweep runs the full in-process fleet benchmark at sizes 1
// and 2: both rows per size must fully verify, and the Zipf row must
// see front-door cache traffic.
func TestFleetSweep(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-fleet", "1,2", "-gen", "connected", "-n", "12", "-seed", "7",
		"-graphs", "6", "-c", "4", "-requests", "6", "-dests", "1", "-json",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	var rep FleetReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\noutput:\n%s", err, buf.String())
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (2 sizes x 2 mixes)", len(rep.Rows))
	}
	if rep.HostCPUs < 1 {
		t.Errorf("host_cpus = %d", rep.HostCPUs)
	}
	for _, row := range rep.Rows {
		if row.OK+row.Unserved != 24 || row.Verified != row.OK {
			t.Errorf("fleet=%d mix=%s: ok=%d unserved=%d verified=%d, want all served+verified",
				row.Backends, row.Mix, row.OK, row.Unserved, row.Verified)
		}
		if row.Mix == "zipf" && row.CacheHits+row.CacheCollapsed == 0 {
			t.Errorf("fleet=%d zipf row saw no front-door cache traffic", row.Backends)
		}
	}
}
