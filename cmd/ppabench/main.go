// Command ppabench is the repository's end-to-end and per-layer
// benchmark. It boots the deployed daemons (ppaserved, and pparouter in
// front of two ppaserved for fleet-zipf) as child processes, drives one
// of four seeded workloads at them from this single generator process,
// verifies every answer against Floyd-Warshall references computed before
// the clock starts, and prints every metric by name and unit.
//
// Usage (from the repository root, which is where the script builds the
// binaries into .bench_build/):
//
//	bash cmd/ppabench/run.sh --workload solve-rotate --seed 1 --seconds 25 --trace 0
//	bash cmd/ppabench/run.sh --workload all --report ppabench-base.json
//	bash cmd/ppabench/run.sh --workload all --compare ppabench-base.json
//	bash cmd/ppabench/run.sh --workload fleet-zipf --trace 1 --trace-out ppabench-spans.json
//
// One run of a workload is -runs rounds; with several workloads the rounds
// interleave in rotated order. Each round starts the server processes
// twice (each time timed as setup_s, up to the first verified answer on
// every graph), then on the second stack runs a closed phase of two
// back-to-back clients (rps) and an open phase on a fixed-interval
// schedule whose latencies count from each operation's due time. setup_s
// is the median of every set-up, rps pools every closed phase, and a
// latency percentile is the median of the rounds' values when every round
// has ten samples beyond it, else taken over the pooled rounds.
//
// With -trace 1 the run instead measures layers: one live round yields
// the daemons' counters, CPU time and client-side splits, an in-process
// replay of the workload's operations through the layers' public
// functions yields span timings, and a lane matrix times each DP lane
// with repeated samples. See README.md for every metric, the layer it
// belongs to and the workload it should move.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer makes the run
// exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, reported with
// -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rps", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"first_row_p50_ms", "ms"},
	{"server_rss_mb", "MB"},
}

// perLayer are the single-layer metrics, reported with -trace 1.
var perLayer = append([]metricDef{
	{"graph.decode_ms", "ms"},
	{"graph.validate_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"serve.pool_get_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.server_ms_mean", "ms"},
	{"serve.pool_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"serve.resp_bytes_per_op", "B"},
	{"serve.ttfb_p50_ms", "ms"},
	{"serve.solves_per_op", "count"},
	{"serve.comm_cycles_per_dest", "cycles"},
	{"serve.cpu_ms_per_op", "ms"},
	{"core.solve_ms", "ms"},
	{"core.iterations_per_dest", "count"},
	{"core.comm_cycles_per_dest", "cycles"},
	{"core.sweep_ms", "ms"},
	{"core.sweep_first_row_ms", "ms"},
	{"core.update_ms", "ms"},
	{"core.resolve_sweep_ms", "ms"},
	{"core.skip_ratio", "ratio"},
	{"core.new_session_ms", "ms"},
	{"core.allocs_per_op", "count"},
	{"core.alloc_kb_per_op", "KiB"},
	{"router.cache_hit_ratio", "ratio"},
	{"router.collapsed_ratio", "ratio"},
	{"router.backend_share_max", "ratio"},
	{"router.hit_p50_ms", "ms"},
	{"router.miss_p50_ms", "ms"},
	{"router.cpu_ms_per_op", "ms"},
	{"router.lookup_us", "us"},
	{"router.cache_get_us", "us"},
	{"gen.late_p99_ms", "ms"},
	{"gen.inflight_max", "count"},
	{"trace.overhead_pct", "%"},
}, laneDefs()...)

func laneDefs() []metricDef {
	var defs []metricDef
	for _, n := range []string{"n16", "n64"} {
		for _, l := range []string{"program", "reference", "switch-only", "virt-m8", "sweep"} {
			defs = append(defs, metricDef{"core.lane." + l + "." + n + "_ms", "ms"})
		}
		defs = append(defs, metricDef{"core.reload." + n + "_ms", "ms"})
	}
	return defs
}

// maxLateP99MS is the generator validity limit: an open phase whose
// dispatch lateness p99 exceeds it measured the generator, not the
// servers, and its round is marked invalid.
const maxLateP99MS = 5.0

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppabench:", err)
	}
	os.Exit(code)
}

type config struct {
	workloads []workload
	seed      int64
	seconds   float64
	trace     bool
	traceOut  string
	runs      int
	binDir    string
	report    string
	compare   string
}

func parseFlags(args []string, out io.Writer) (*config, error) {
	fs := flag.NewFlagSet("ppabench", flag.ContinueOnError)
	fs.SetOutput(out)
	names := fs.String("workload", "all", "workload name, comma-separated names, or all")
	seed := fs.Int64("seed", 1, "seed every graph, destination, Zipf draw and update batch derives from")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: report per-layer metrics (live counters, traced in-process replay, lane matrix)")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the replay's spans to this JSON file")
	runs := fs.Int("runs", 6, "rounds per workload (interleaved across workloads in rotated order)")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the ppaserved and pparouter binaries")
	report := fs.String("report", "", "write the full report (per-round values, host stamp) to this JSON file")
	compare := fs.String("compare", "", "classify every (metric, workload) against this base report by the bounds in ./BENCHMARK.json; exit 3 on worse")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut,
		runs: *runs, binDir: *bin, report: *report, compare: *compare}
	switch {
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1")
	case *runs < 1 || *seconds <= 0:
		return nil, fmt.Errorf("-runs and -seconds must be positive")
	}
	if *names == "all" {
		cfg.workloads = workloads
	} else {
		for _, name := range strings.Split(*names, ",") {
			w, ok := findWorkload(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", name)
			}
			cfg.workloads = append(cfg.workloads, w)
		}
	}
	return cfg, nil
}

// run executes the benchmark and returns the process exit code: 0, 1 for
// a failed run or a wrong answer, 2 for bad flags, 3 for a regression
// found by -compare.
func run(args []string, stdout io.Writer) (int, error) {
	cfg, err := parseFlags(args, os.Stderr)
	if err != nil {
		return 2, err
	}
	for _, b := range []string{"ppaserved", "pparouter"} {
		if _, err := os.Stat(filepath.Join(cfg.binDir, b)); err != nil {
			return 1, fmt.Errorf("daemon binary: %w (build with cmd/ppabench/run.sh)", err)
		}
	}
	// Every request and stream read runs under this deadline, so a daemon
	// that stops answering fails the run instead of hanging it.
	limit := time.Duration(2*cfg.seconds*float64(len(cfg.workloads))*float64(time.Second)) + time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	rep := &report{Host: stamp(), Seed: cfg.seed, Seconds: cfg.seconds, Runs: cfg.runs, N: graphN, Trace: cfg.trace}
	if cfg.trace {
		err = runTraced(ctx, cfg, rep)
	} else {
		err = runRounds(ctx, cfg, rep)
	}
	if err != nil {
		return 1, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := printReport(stdout, rep, defs)
	if cfg.report != "" {
		if err := writeJSON(cfg.report, rep); err != nil {
			return 1, err
		}
	}
	code := 0
	if cfg.compare != "" && !cfg.trace {
		worse, err := compareReports(stdout, "BENCHMARK.json", cfg.compare, rep)
		if err != nil {
			return 1, err
		}
		if worse {
			code = 3
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed verification", res.Failed, res.Attempted)
	}
	return code, nil
}

// roundResult is one round of one workload.
type roundResult struct {
	setupS            []float64 // one per set-up
	rssMB             float64
	closedOK          int       // verified closed-phase operations
	closedS           float64   // closed-phase wall time
	lat, firstRow     []float64 // open-phase samples, ms
	lateP99           float64
	inflightMax       int64
	attempted, failed int
}

// setupsPerRound is how often a round starts the workload's servers; the
// last stack serves the round's phases.
const setupsPerRound = 2

// runRounds runs cfg.runs rounds of every workload, interleaved in
// rotated order, and fills rep with the end-to-end metrics.
func runRounds(ctx context.Context, cfg *config, rep *report) error {
	per := time.Duration(cfg.seconds / float64(cfg.runs) * float64(time.Second))
	results := make([][]*roundResult, len(cfg.workloads))
	ins := make([]*inputs, len(cfg.workloads))
	vs := make([]*verifier, len(cfg.workloads))
	for i, w := range cfg.workloads {
		in, err := newInputs(w, graphN, cfg.seed)
		if err != nil {
			return fmt.Errorf("%s inputs: %w", w.name, err)
		}
		ins[i], vs[i] = in, newVerifier(in)
	}
	for round := 0; round < cfg.runs; round++ {
		for k := range cfg.workloads {
			i := (k + round) % len(cfg.workloads)
			rr, err := runRound(ctx, cfg.binDir, ins[i], vs[i], per/2, per/2)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", cfg.workloads[i].name, round, err)
			}
			results[i] = append(results[i], rr)
		}
	}
	for i, w := range cfg.workloads {
		rep.Workloads = append(rep.Workloads, summarize(w, results[i]))
	}
	return nil
}

// runRound measures set-up setupsPerRound times, runs the closed and open
// phases on the last stack, and stops every process before returning.
func runRound(ctx context.Context, binDir string, in *inputs, v *verifier, closedDur, openDur time.Duration) (*roundResult, error) {
	rr := &roundResult{}
	var st *stack
	for i := 0; i < setupsPerRound; i++ {
		if st != nil {
			st.stop()
		}
		var secs float64
		var err error
		if st, secs, err = rr.setup(ctx, binDir, in, v); err != nil {
			return nil, err
		}
		rr.setupS = append(rr.setupS, secs)
	}
	defer st.stop()
	closed := st.closedPhase(ctx, closedDur)
	rr.tally(st, v, closed.recs)
	rr.closedOK, rr.closedS = closed.okCount(), closed.end.Sub(closed.start).Seconds()
	open := st.openPhase(ctx, openDur, in.w.openRate)
	rr.tally(st, v, open.recs)
	rr.lat, rr.firstRow = open.latencies()
	rr.lateP99 = quantile(open.lateMS, 0.99)
	rr.inflightMax = open.inflightMax
	for _, d := range st.daemons() {
		mb, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rr.rssMB += mb
	}
	return rr, nil
}

// tally verifies recs and adds them to the round's counts. A wrong
// answer is reported on standard error and counted as failed.
func (rr *roundResult) tally(st *stack, v *verifier, recs []opRec) {
	if err := st.verify(v, recs); err != nil {
		fmt.Fprintln(os.Stderr, "ppabench: VERIFY FAILED:", err)
	}
	for _, r := range recs {
		rr.attempted++
		if !r.ok {
			rr.failed++
		}
	}
}

// setup starts the workload's servers and sends the first request for
// every graph (opens every session, for session-churn), one at a time. It
// returns the stack and the set-up time: from spawning the processes to
// the last first answer, which is verified after the clock stops.
func (rr *roundResult) setup(ctx context.Context, binDir string, in *inputs, v *verifier) (*stack, float64, error) {
	t0 := time.Now()
	st, err := startStack(binDir, in)
	if err != nil {
		return nil, 0, err
	}
	var recs []opRec
	if in.w.kind == opSession {
		recs, err = st.openSessions(ctx)
	} else {
		var buf []byte
		for g := range in.graphs {
			rec := opRec{op: op{graph: g, dests: in.setupDests[g]}}
			st.do(ctx, &rec, &buf)
			recs = append(recs, rec)
		}
	}
	if err != nil {
		st.stop()
		return nil, 0, err
	}
	end := t0
	for _, r := range recs {
		if r.done.After(end) {
			end = r.done
		}
	}
	rr.tally(st, v, recs)
	return st, end.Sub(t0).Seconds(), nil
}

// summarize turns a workload's rounds into its end-to-end metrics.
// Rounds whose generator ran late are dropped while a valid one remains.
func summarize(w workload, rounds []*roundResult) workloadReport {
	wr := workloadReport{Name: w.name}
	var valid []*roundResult
	for _, r := range rounds {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		if r.lateP99 <= maxLateP99MS {
			valid = append(valid, r)
		} else {
			wr.InvalidRounds++
			fmt.Fprintf(os.Stderr, "ppabench: %s: round invalid, generator lateness p99 %.2f ms > %.1f ms\n", w.name, r.lateP99, maxLateP99MS)
		}
	}
	if len(valid) == 0 {
		valid = rounds
	}
	each := func(f func(*roundResult) float64) []float64 {
		var xs []float64
		for _, r := range valid {
			xs = append(xs, f(r))
		}
		return xs
	}
	samples := func(f func(*roundResult) []float64) [][]float64 {
		var xs [][]float64
		for _, r := range valid {
			xs = append(xs, f(r))
		}
		return xs
	}
	add := func(name string, value float64, rounds []float64) {
		wr.add(name, value, rounds)
	}
	// Set-up does not depend on the generator, so every set-up counts.
	var setup []float64
	for _, r := range rounds {
		setup = append(setup, r.setupS...)
	}
	add("setup_s", median(setup), setup)
	// Closed-loop throughput drifts on a scale of seconds as two server
	// workers and the generator share the CPUs, so rps pools every round's
	// closed phase instead of taking a median of short windows.
	var done, secs float64
	for _, r := range valid {
		done, secs = done+float64(r.closedOK), secs+r.closedS
	}
	add("rps", done/secs, each(func(r *roundResult) float64 { return float64(r.closedOK) / r.closedS }))
	lat := samples(func(r *roundResult) []float64 { return r.lat })
	// p90 is the bounded tail: on a shared 2-vCPU host p99 moves by a
	// quarter between runs. p99 is still reported, unbounded.
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}} {
		v, per, ok := roundsQuantile(lat, p.q)
		if !ok {
			fmt.Fprintf(os.Stderr, "ppabench: %s: too few open-phase samples for %s\n", w.name, p.name)
		}
		add(p.name, v, per)
	}
	fr, frr, _ := roundsQuantile(samples(func(r *roundResult) []float64 { return r.firstRow }), 0.5)
	add("first_row_p50_ms", fr, frr)
	rss := each(func(r *roundResult) float64 { return r.rssMB })
	add("server_rss_mb", median(rss), rss)
	late := each(func(r *roundResult) float64 { return r.lateP99 })
	add("gen.late_p99_ms", median(late), late)
	infl := each(func(r *roundResult) float64 { return float64(r.inflightMax) })
	add("gen.inflight_max", median(infl), infl)
	return wr
}

// report is the full record of one ppabench invocation (-report).
type report struct {
	Host      hostStamp        `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs"`
	N         int              `json:"n"`
	Trace     bool             `json:"trace"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name          string         `json:"name"`
	Attempted     int            `json:"attempted"`
	Failed        int            `json:"failed"`
	InvalidRounds int            `json:"invalid_rounds"`
	Metrics       []metricReport `json:"metrics"`
	// Traced runs only: lane-matrix cells with their quartiles, and the
	// median self time of every span name.
	Lanes  map[string]laneStat `json:"lanes,omitempty"`
	SelfMS map[string]float64  `json:"self_ms,omitempty"`
}

type metricReport struct {
	Name   string    `json:"name"`
	Value  float64   `json:"value"`
	Rounds []float64 `json:"rounds,omitempty"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func (wr *workloadReport) add(name string, value float64, rounds []float64) {
	if len(rounds) == 0 {
		rounds = []float64{value}
	}
	q1, q3 := quartiles(rounds)
	wr.Metrics = append(wr.Metrics, metricReport{Name: name, Value: finite(value), Rounds: finiteAll(rounds), Q1: finite(q1), Q3: finite(q3)})
}

func (wr *workloadReport) metric(name string) (metricReport, bool) {
	for _, m := range wr.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricReport{}, false
}

// finite maps values JSON cannot carry: NaN (no samples) to 0, and +Inf
// (a percentile that landed on a failed operation) to the largest float.
func finite(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case math.IsInf(x, 1):
		return math.MaxFloat64
	case math.IsInf(x, -1):
		return -math.MaxFloat64
	}
	return x
}

func finiteAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = finite(x)
	}
	return out
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric of every workload, one per line, and
// returns the result line, which carries the metrics of defs. With
// several workloads the result's metric names are prefixed "<workload>/".
func printReport(out io.Writer, rep *report, defs []metricDef) result {
	res := result{Correct: true, Metrics: map[string]valueOfUnit{}}
	h := rep.Host
	fmt.Fprintf(out, "host: %d CPUs, GOMAXPROCS %d, %s, %s, revision %s (modified %v)\n",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Revision, h.Modified)
	units := map[string]string{"p99_ms": "ms"}
	for _, all := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range all {
			units[d.name] = d.unit
		}
	}
	inResult := map[string]bool{}
	for _, d := range defs {
		inResult[d.name] = true
	}
	for _, wr := range rep.Workloads {
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
		fmt.Fprintf(out, "%s: %d operations, %d failed, %d invalid rounds\n", wr.Name, wr.Attempted, wr.Failed, wr.InvalidRounds)
		for _, m := range wr.Metrics {
			fmt.Fprintf(out, "  %-30s %14.6g %-6s rounds %.6g\n", m.Name, m.Value, units[m.Name], m.Rounds)
			if !inResult[m.Name] {
				continue
			}
			key := m.Name
			if len(rep.Workloads) > 1 {
				key = wr.Name + "/" + m.Name
			}
			res.Metrics[key] = valueOfUnit{Value: m.Value, Unit: units[m.Name]}
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// hostStamp records where a report was measured.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func stamp() hostStamp {
	h := hostStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Revision: "unknown", CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareReports classifies every (end-to-end metric, workload) pair of
// cur against the base report by the bounds in the spec, prints one row
// per pair, and reports whether any pair got worse.
func compareReports(out io.Writer, specPath, basePath string, cur *report) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	b, err := os.ReadFile(basePath)
	if err != nil {
		return false, err
	}
	var base report
	if err := json.Unmarshal(b, &base); err != nil {
		return false, fmt.Errorf("%s: %w", basePath, err)
	}
	fmt.Fprintf(out, "compare against %s (revision %s)\n", basePath, base.Host.Revision)
	anyWorse := false
	for _, cw := range cur.Workloads {
		var bw *workloadReport
		for i := range base.Workloads {
			if base.Workloads[i].Name == cw.Name {
				bw = &base.Workloads[i]
			}
		}
		for _, m := range spec.EndToEnd {
			cm, ok := cw.metric(m.Name)
			if !ok {
				continue
			}
			v := unresolved
			bmed := math.NaN()
			if bw != nil {
				if bm, ok := bw.metric(m.Name); ok {
					v = classify(bm.Rounds, cm.Rounds, m.Better == "lower", m.Bound)
					bmed = bm.Value
				}
			}
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(out, "  %-16s %-18s base %12.6g  now %12.6g  bound %4.0f%%  %s\n",
				cw.Name, m.Name, bmed, cm.Value, 100*m.Bound, v)
		}
	}
	return anyWorse, nil
}

// runTraced measures the per-layer metrics of every workload.
func runTraced(ctx context.Context, cfg *config, rep *report) error {
	var allSpans []span
	for _, w := range cfg.workloads {
		in, err := newInputs(w, graphN, cfg.seed)
		if err != nil {
			return fmt.Errorf("%s inputs: %w", w.name, err)
		}
		wr, spans, err := traceWorkload(ctx, cfg, in)
		if err != nil {
			return fmt.Errorf("%s traced run: %w", w.name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
		allSpans = append(allSpans, spans...)
	}
	if cfg.traceOut != "" {
		return writeJSON(cfg.traceOut, allSpans)
	}
	return nil
}

// traceWorkload is one workload's per-layer measurement: a live round
// with the daemons' counters (40% of the time), the in-process traced
// replay (35%), and the lane matrix (25%).
func traceWorkload(ctx context.Context, cfg *config, in *inputs) (workloadReport, []span, error) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	wr := workloadReport{Name: in.w.name}
	live, err := liveLayers(ctx, cfg.binDir, in, total*4/10, &wr)
	if err != nil {
		return wr, nil, err
	}
	t := &tracer{epoch: time.Now()}
	vals, self, err := replayLayers(ctx, in, t, total*35/100)
	if err != nil {
		return wr, nil, err
	}
	for k, v := range live {
		vals[k] = v
	}
	if in.w.kind == opSession {
		// The daemon exports no per-generation latency, so the server-side
		// time of a session-churn operation is its replayed update,
		// re-solve and encode.
		vals["serve.server_ms_mean"] = vals["replay.op_ms_mean"]
	}
	lanes, err := laneMatrix(ctx, cfg.seed, total/4)
	if err != nil {
		return wr, nil, err
	}
	for k, l := range lanes {
		vals[k] = l.Median
	}
	wr.Lanes, wr.SelfMS = lanes, self
	for _, d := range perLayer {
		v, ok := vals[d.name]
		if !ok {
			return wr, nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		wr.add(d.name, v, nil)
	}
	if in.w.name == "solve-rotate" {
		sum := 0.0
		for _, k := range []string{"graph.decode", "graph.validate", "graph.fingerprint", "serve.pool_get", "serve.encode"} {
			sum += self[k]
		}
		sum += 2 * vals["core.solve_ms"]
		iqr := lanes["core.lane.program.n64_ms"].Q3 - lanes["core.lane.program.n64_ms"].Q1
		fmt.Fprintf(os.Stderr, "ppabench: %s: layer spans sum %.3f ms; serve.server_ms_mean %.3f ms (difference %.3f ms; program-lane n64 IQR %.3f ms); HTTP residual p50 - server mean %.3f ms\n",
			in.w.name, sum, vals["serve.server_ms_mean"], vals["serve.server_ms_mean"]-sum, iqr, live["http.residual_ms"])
	}
	return wr, t.spans, nil
}

// liveLayers runs one live round of the workload (set-up, then an open
// phase of dur) and derives the per-layer metrics the daemons and the
// client observe: /metrics deltas, CPU time, client splits and generator
// validity. On workloads that do not pass through pparouter the router
// layer is measured by a probe: pparouter started in front of the
// workload's server, each graph requested once to miss and once to hit.
func liveLayers(ctx context.Context, binDir string, in *inputs, dur time.Duration, wr *workloadReport) (map[string]float64, error) {
	v := newVerifier(in)
	rr := &roundResult{}
	st, _, err := rr.setup(ctx, binDir, in, v)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	before, err := snapshotStack(ctx, st)
	if err != nil {
		return nil, err
	}
	open := st.openPhase(ctx, dur, in.w.openRate)
	after, err := snapshotStack(ctx, st)
	if err != nil {
		return nil, err
	}
	rr.tally(st, v, open.recs)
	vals := layerCounters(before, after, open.recs)
	vals["gen.late_p99_ms"] = quantile(open.lateMS, 0.99)
	vals["gen.inflight_max"] = float64(open.inflightMax)
	lat, _ := open.latencies()
	vals["http.residual_ms"] = median(lat) - vals["serve.server_ms_mean"]
	if !in.w.fleet {
		probe, err := routerProbe(ctx, binDir, st, v, rr)
		if err != nil {
			return nil, err
		}
		for k, x := range probe {
			vals[k] = x
		}
	}
	wr.Attempted += rr.attempted
	wr.Failed += rr.failed
	return vals, nil
}

// stackSnapshot is the daemons' counters and CPU time at one instant.
type stackSnapshot struct {
	backends  []promSample
	cpu       []int64 // per backend, ns
	routerCPU int64
}

func snapshotStack(ctx context.Context, st *stack) (*stackSnapshot, error) {
	s := &stackSnapshot{}
	for _, d := range st.backends {
		p, err := scrape(ctx, st.hc, d.url)
		if err != nil {
			return nil, err
		}
		c, err := d.cpuNS()
		if err != nil {
			return nil, err
		}
		s.backends = append(s.backends, p)
		s.cpu = append(s.cpu, c)
	}
	if st.router != nil {
		c, err := st.router.cpuNS()
		if err != nil {
			return nil, err
		}
		s.routerCPU = c
	}
	return s, nil
}

// layerCounters derives the live per-layer metrics of one phase from the
// counters before and after it and the phase's client records.
func layerCounters(before, after *stackSnapshot, recs []opRec) map[string]float64 {
	delta := func(name string) float64 {
		d := 0.0
		for i := range after.backends {
			d += after.backends[i].sum(name) - before.backends[i].sum(name)
		}
		return d
	}
	lifetime := func(name string) float64 {
		t := 0.0
		for _, p := range after.backends {
			t += p.sum(name)
		}
		return t
	}
	ops := float64(len(recs))
	vals := map[string]float64{}
	vals["serve.server_ms_mean"] = ratio(1000*delta("ppaserved_solve_latency_seconds_sum"), delta("ppaserved_solve_latency_seconds_count"))
	hits, misses := lifetime("ppaserved_session_pool_hits_total"), lifetime("ppaserved_session_pool_misses_total")
	vals["serve.pool_hit_ratio"] = ratio(hits, hits+misses)
	batches, coalesced := delta("ppaserved_batches_total"), delta("ppaserved_coalesced_jobs_total")
	vals["serve.coalesced_ratio"] = ratio(coalesced, batches+coalesced)
	solves := delta("ppaserved_solves_total")
	vals["serve.solves_per_op"] = ratio(solves, ops)
	vals["serve.comm_cycles_per_dest"] = ratio(delta("ppaserved_machine_comm_cycles_total"), solves)
	cpu := int64(0)
	for i := range after.cpu {
		cpu += after.cpu[i] - before.cpu[i]
	}
	vals["serve.cpu_ms_per_op"] = ratio(float64(cpu)/1e6, ops)
	vals["router.cpu_ms_per_op"] = ratio(float64(after.routerCPU-before.routerCPU)/1e6, ops)
	for k, x := range clientSplits(recs) {
		vals[k] = x
	}
	return vals
}

// clientSplits are the per-layer metrics the client observes on its own:
// shedding, response size, time to first byte, and the router's cache
// behaviour by X-Ppa-Cache and X-Ppa-Backend.
func clientSplits(recs []opRec) map[string]float64 {
	var shed, bytes int
	var ttfb, hitMS, missMS []float64
	var hits, collapsed, upstream int
	perBackend := map[string]int{}
	for _, r := range recs {
		shed += r.shed
		bytes += r.bytes
		if !r.ok {
			continue
		}
		ttfb = append(ttfb, ms(r.first.Sub(r.sent)))
		switch r.cache {
		case "hit":
			hits++
			hitMS = append(hitMS, ms(r.done.Sub(r.sent)))
		case "collapsed":
			collapsed++
		case "miss":
			missMS = append(missMS, ms(r.done.Sub(r.sent)))
		}
		if r.backend != "" {
			perBackend[r.backend]++
			upstream++
		}
	}
	shareMax := 0
	for _, c := range perBackend {
		shareMax = max(shareMax, c)
	}
	ops := float64(len(recs))
	return map[string]float64{
		"serve.shed_ratio":         ratio(float64(shed), ops+float64(shed)),
		"serve.resp_bytes_per_op":  ratio(float64(bytes), ops),
		"serve.ttfb_p50_ms":        median(ttfb),
		"router.cache_hit_ratio":   ratio(float64(hits+collapsed), ops),
		"router.collapsed_ratio":   ratio(float64(collapsed), ops),
		"router.backend_share_max": ratio(float64(shareMax), float64(upstream)),
		"router.hit_p50_ms":        median(hitMS),
		"router.miss_p50_ms":       median(missMS),
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// routerProbe measures the router layer for a workload that does not use
// it: pparouter in front of the workload's (first) server, and each
// graph requested as /v1/solve with several destination sets, every
// identity once to miss and once to hit.
func routerProbe(ctx context.Context, binDir string, st *stack, v *verifier, rr *roundResult) (map[string]float64, error) {
	r, err := startDaemon(binDir, "pparouter", "-backends", st.backends[0].url)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()
	probe := &stack{in: st.in, router: r, target: r.url, hc: hc}
	graphs := len(st.in.graphs)
	sets := (2*probeMin + graphs - 1) / graphs
	var recs []opRec
	var buf []byte
	cpu0, err := r.cpuNS()
	if err != nil {
		return nil, err
	}
	for s := 0; s < sets; s++ {
		for g := 0; g < graphs; g++ {
			o := op{graph: g, dests: drawDests(st.in.rng, st.in.n, 2)}
			for rep := 0; rep < 2; rep++ {
				rec := opRec{op: o}
				// The probe always solves, whatever the workload's kind.
				rec.sent = time.Now()
				buf = st.in.solveBody(buf, o.graph, o.dests)
				probe.post(ctx, &rec, "/v1/solve", buf, false)
				recs = append(recs, rec)
			}
		}
	}
	cpu1, err := r.cpuNS()
	if err != nil {
		return nil, err
	}
	for i := range recs {
		rec := &recs[i]
		err := rec.err
		if err == nil && rec.status != http.StatusOK {
			err = fmt.Errorf("router probe: status %d", rec.status)
		}
		if err == nil {
			err = v.checkSolve(rec.raw, rec.op.graph, rec.op.dests)
		}
		rec.ok = err == nil
		rr.attempted++
		if err != nil {
			rr.failed++
			fmt.Fprintln(os.Stderr, "ppabench: VERIFY FAILED: router probe:", err)
		}
	}
	vals := clientSplits(recs)
	out := map[string]float64{}
	for _, k := range []string{"router.cache_hit_ratio", "router.collapsed_ratio", "router.backend_share_max", "router.hit_p50_ms", "router.miss_p50_ms"} {
		out[k] = vals[k]
	}
	out["router.cpu_ms_per_op"] = ratio(float64(cpu1-cpu0)/1e6, float64(len(recs)))
	return out, nil
}

// replayLayers replays the workload's operations in-process for about
// budget, alternating chunks with spans on and off (the difference is
// trace.overhead_pct), probes the layers the stream does not reach, and
// returns the per-layer values and each span name's median self time.
func replayLayers(ctx context.Context, in *inputs, t *tracer, budget time.Duration) (map[string]float64, map[string]float64, error) {
	r, err := newReplayer(ctx, in, t)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	// One untraced pass over every graph warms the pools first.
	for g := range in.graphs {
		if err := r.replay(op{graph: g, dests: in.setupDests[g], key: -1}, -1); err != nil {
			return nil, nil, err
		}
	}
	// Nine operations per chunk: no workload's period (8 graphs, 2
	// sessions times a 128-batch cycle) divides it, so traced and
	// untraced chunks drift through every phase of the stream instead of
	// replaying fixed halves of it.
	const chunk = 9
	var onNS, offNS int64
	var onOps, offOps int
	opID := 0
	var ops []op
	r.counting = true
	start := time.Now()
	for k := 0; time.Since(start) < budget || onOps < probeMin; k++ {
		t.on = k%2 == 1
		t0 := time.Now()
		for i := 0; i < chunk; i++ {
			o := in.next()
			ops = append(ops, o)
			if err := r.replay(o, opID); err != nil {
				return nil, nil, err
			}
			opID++
		}
		d := int64(time.Since(t0))
		if t.on {
			onNS, onOps = onNS+d, onOps+chunk
		} else {
			offNS, offOps = offNS+d, offOps+chunk
		}
	}
	r.counting = false
	t.on = true
	dur, _ := t.durations()
	if err := r.probe(dur, &opID); err != nil {
		return nil, nil, err
	}
	dur, selfDur := t.durations()
	allocs, kb, err := coreAllocs(ctx, in, ops[:min(len(ops), 64)])
	if err != nil {
		return nil, nil, err
	}
	med := func(name string) float64 { return median(dur[name]) }
	onMean, offMean := float64(onNS)/float64(onOps), float64(offNS)/float64(offOps)
	vals := map[string]float64{
		"graph.decode_ms":           med("graph.decode"),
		"graph.validate_ms":         med("graph.validate"),
		"graph.fingerprint_ms":      med("graph.fingerprint"),
		"serve.pool_get_ms":         med("serve.pool_get"),
		"serve.encode_ms":           med("serve.encode"),
		"core.solve_ms":             med("core.solve"),
		"core.sweep_ms":             med("core.sweep"),
		"core.sweep_first_row_ms":   med("core.sweep_first_row"),
		"core.update_ms":            med("core.update"),
		"core.resolve_sweep_ms":     med("core.resolve_sweep"),
		"core.new_session_ms":       med("core.new_session"),
		"router.lookup_us":          1000 * med("router.lookup"),
		"router.cache_get_us":       1000 * med("router.cache_get"),
		"core.iterations_per_dest":  ratio(float64(r.iters), float64(r.rows)),
		"core.comm_cycles_per_dest": ratio(float64(r.comm), float64(r.rows)),
		"core.allocs_per_op":        allocs,
		"core.alloc_kb_per_op":      kb,
		"trace.overhead_pct":        100 * (onMean - offMean) / offMean,
		"replay.op_ms_mean":         offMean / 1e6,
	}
	// Skip ratio over the re-solve rows: the session stream's own, or a
	// probe session's for the other workloads.
	vals["core.skip_ratio"] = ratio(float64(r.zero), float64(r.rows))
	if in.w.kind != opSession {
		if vals["core.skip_ratio"], err = r.probeSkipRatio(); err != nil {
			return nil, nil, err
		}
	}
	self := map[string]float64{}
	for name, xs := range selfDur {
		self[name] = median(xs)
	}
	return vals, self, nil
}
