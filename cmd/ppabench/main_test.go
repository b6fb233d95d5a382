package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ppamcp/internal/serve"
)

// buildDaemons compiles ppaserved and pparouter from the enclosing module
// into a temporary directory.
func buildDaemons(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "ppamcp/cmd/ppaserved", "ppamcp/cmd/pparouter")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	return dir
}

// lastResult runs ppabench with args and decodes its last output line.
func lastResult(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var out bytes.Buffer
	code, err := run(args, &out)
	if err != nil {
		t.Logf("run %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v\n%s", lines[len(lines)-1], err, out.String())
	}
	return res, code
}

// TestWorkloadsEndToEnd runs every workload at n=16 for one short round,
// untraced and traced, against freshly built daemons: every answer must
// verify and every metric the benchmark defines must be reported.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons")
	}
	bin := buildDaemons(t)
	defer func(n int) { graphN = n }(graphN)
	graphN = 16
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, tc := range []struct {
				trace string
				defs  []metricDef
			}{{"0", endToEnd}, {"1", perLayer}} {
				res, code := lastResult(t, "-bin", bin, "-workload", w.name, "-runs", "1",
					"-seconds", "2", "-seed", "3", "-trace", tc.trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace %s: exit %d, correct %v, %d of %d failed", tc.trace, code, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(tc.defs) {
					t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.defs))
				}
				for _, d := range tc.defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace %s: metric %s = %+v, want unit %s", tc.trace, d.name, m, d.unit)
					}
					if tc.trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			}
		})
	}
}

// TestWrongAnswersFail serves /v1/solve through a real solver whose
// answers are then corrupted one way or another; every corrupted answer
// must count as failed, and the untouched control must pass.
func TestWrongAnswersFail(t *testing.T) {
	w, _ := findWorkload("solve-rotate")
	in, err := newInputs(w, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.New(serve.Config{})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	corrupt := func(mutate func(*serve.SolveResponse)) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, r)
			var sr serve.SolveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
				t.Errorf("solver answered %q: %v", rec.Body.String(), err)
				return
			}
			mutate(&sr)
			_ = json.NewEncoder(rw).Encode(sr)
		})
	}
	cases := []struct {
		name   string
		mutate func(*serve.SolveResponse)
		ok     bool
	}{
		{"correct", func(*serve.SolveResponse) {}, true},
		{"distance off by one", func(sr *serve.SolveResponse) {
			r := sr.Results[len(sr.Results)-1]
			r.Dist[(r.Dest+1)%len(r.Dist)]++
		}, false},
		{"next pointer to itself", func(sr *serve.SolveResponse) {
			r := sr.Results[0]
			v := (r.Dest + 1) % len(r.Next)
			r.Next[v] = v
		}, false},
		{"row for another destination", func(sr *serve.SolveResponse) {
			sr.Results[0].Dest = (sr.Results[0].Dest + 1) % in.n
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(corrupt(c.mutate))
			defer srv.Close()
			st := &stack{in: in, target: srv.URL, hc: srv.Client()}
			recs := make([]opRec, 6)
			var buf []byte
			for i := range recs {
				recs[i].op = in.next()
				st.do(context.Background(), &recs[i], &buf)
			}
			rr := &roundResult{}
			rr.tally(st, newVerifier(in), recs)
			wantFailed := 0
			if !c.ok {
				wantFailed = len(recs)
			}
			if rr.attempted != len(recs) || rr.failed != wantFailed {
				t.Fatalf("%d attempted, %d failed; want %d failed", rr.attempted, rr.failed, wantFailed)
			}
		})
	}
}

// TestBenchmarkSpecMatches keeps the repository's BENCHMARK.json and the
// metrics this program reports in step.
func TestBenchmarkSpecMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, ppabench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, ppabench %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, ppabench %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, ppabench %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %+v, ppabench %+v", i, m, perLayer[i])
		}
	}
}
