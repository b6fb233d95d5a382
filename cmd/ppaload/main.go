// Command ppaload is a closed-loop load generator for ppaserved and
// pparouter: C concurrent clients each issue R solve requests
// back-to-back, verify every response against the sequential reference,
// honor Retry-After backoff on 429, and report latency percentiles,
// throughput, and client-observed cache behavior — the numbers behind
// BENCH_PR2.json and BENCH_PR7.json.
//
// Targets. Exactly one of:
//
//	-url       one server (ppaserved or pparouter)
//	-targets   comma-separated servers; clients spread round-robin
//	-selfserve in-process ppaserved on an ephemeral port
//	-fleet     in-process fleet sweep: for each size in the list, boot
//	           that many ppaserved backends behind a pparouter and run
//	           a cache-miss row and a Zipf row (the scaling benchmark)
//
// Workload shape. -graphs K rotates the load over K generator seeds;
// -zipf s (s > 1) draws the graph per request from a Zipf distribution
// instead of a uniform stripe, concentrating load on a few hot graphs
// the way real traffic does — the front-door cache's natural prey.
// -allpairs switches every request to POST /v1/allpairs: each client
// streams full n-destination tables, every row is verified, and the
// report adds time-to-first-row and time-to-full-table percentiles.
// -updates N switches to dynamic-graph session mode: each client opens
// one streaming session, pushes N weight-delta batches through it
// (verifying every re-solved generation against Bellman-Ford on a local
// mirror), then replays the same number of mutations as cold inline
// solves — reporting updates/sec vs cold solves/sec and staleness
// percentiles. Combining -updates with -allpairs creates the sessions
// with "dests": "all": every generation streams the full n-destination
// table (verified row by row against Bellman-Ford), the staleness
// percentiles become table staleness (delta POST to holding the whole
// re-solved table), and the cold baseline replays each mutation as a
// from-scratch /v1/allpairs table.
//
// Examples:
//
//	ppaload -url http://localhost:8080 -gen connected -n 64 -c 32 -requests 10
//	ppaload -targets http://a:8081,http://b:8081 -graphs 8 -zipf 1.4 -json
//	ppaload -fleet 1,2,4 -backend-delay 8ms -json
//	ppaload -selfserve -allpairs -gen connected -n 64 -c 4 -requests 3 -json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ppamcp/internal/cli"
	"ppamcp/internal/graph"
	"ppamcp/internal/router"
	"ppamcp/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppaload:", err)
		os.Exit(1)
	}
}

// Percentiles summarizes one latency distribution in milliseconds.
type Percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Summary is the machine-readable report for one load run (-json).
type Summary struct {
	Target          string       `json:"target"`
	Gen             cli.Workload `json:"gen"`
	N               int          `json:"n"`
	Clients         int          `json:"clients"`
	PerClient       int          `json:"requests_per_client"`
	DestsPerRequest int          `json:"dests_per_request"`
	Graphs          int          `json:"graphs"`
	Zipf            float64      `json:"zipf,omitempty"`
	Mix             string       `json:"mix,omitempty"`
	Backends        int          `json:"backends,omitempty"`

	Requests   int     `json:"requests"`
	OK         int     `json:"ok"`
	Shed429    int     `json:"shed_429"`
	Unserved   int     `json:"unserved_429"` // still shed after all retries
	Deadline   int     `json:"deadline_504"`
	Errors     int     `json:"errors"`
	Verified   int     `json:"verified"`
	DurationS  float64 `json:"duration_s"`
	Throughput float64 `json:"throughput_rps"`
	Solves     int64   `json:"dest_solves"`
	PoolHits   int     `json:"pool_hits"`
	Coalesced  int     `json:"coalesced_requests"` // responses with batched > 1

	// Client-observed router cache behavior (X-Ppa-Cache response
	// header; zero against a bare ppaserved).
	CacheHits      int     `json:"cache_hits"`
	CacheCollapsed int     `json:"cache_collapsed"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	// BackendSpread counts upstream-served responses per backend
	// (X-Ppa-Backend header) — the router's observed load balance.
	BackendSpread map[string]int `json:"backend_spread,omitempty"`

	LatencyMS Percentiles `json:"latency_ms"`

	// All-pairs streaming mode (-allpairs): rows received across all
	// streams, time-to-first-row and time-to-full-table distributions.
	AllPairs     bool         `json:"allpairs,omitempty"`
	RowsStreamed int64        `json:"rows_streamed,omitempty"`
	FirstRowMS   *Percentiles `json:"first_row_ms,omitempty"`
	FullTableMS  *Percentiles `json:"full_table_ms,omitempty"`

	// Dynamic-graph session mode (-updates): delta batches pushed through
	// streaming sessions vs the same mutations replayed as cold inline
	// solves. StalenessMS is the delta-POST-to-re-solved-rows latency;
	// WarmIterations sums the re-solves' DP round counts (the warm-start
	// win the mode exists to measure).
	UpdatesMode    bool         `json:"updates_mode,omitempty"`
	UpdateBatch    int          `json:"update_batch,omitempty"`
	UpdatesPerSec  float64      `json:"updates_per_sec,omitempty"`
	ColdPerSec     float64      `json:"cold_solves_per_sec,omitempty"`
	StalenessMS    *Percentiles `json:"staleness_ms,omitempty"`
	WarmIterations int64        `json:"warm_iterations,omitempty"`
}

// FleetReport is the -fleet output: one miss row and one Zipf row per
// fleet size, plus the knobs that shaped them.
type FleetReport struct {
	HostCPUs       int     `json:"host_cpus"`
	BackendWorkers int     `json:"backend_workers"`
	BackendDelayMS float64 `json:"backend_delay_ms"`
	RouterVNodes   int     `json:"router_vnodes"`
	RouterCache    int     `json:"router_cache_entries"`
	// Note states the measurement honestly: on hosts with few cores the
	// backend solve delay emulates per-device occupancy, since real
	// CPU-parallel speedup is unavailable to measure.
	Note string    `json:"note"`
	Rows []Summary `json:"rows"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppaload", flag.ContinueOnError)
	fs.SetOutput(out)
	var w cli.Workload
	w.Register(fs)
	url := fs.String("url", "", "target server (e.g. http://localhost:8080)")
	targets := fs.String("targets", "", "comma-separated target servers; clients spread round-robin")
	selfserve := fs.Bool("selfserve", false, "spin up an in-process server on an ephemeral port and load it")
	fleet := fs.String("fleet", "", "comma-separated fleet sizes (e.g. 1,2,4): in-process router+backends sweep")
	clients := fs.Int("c", 32, "concurrent closed-loop clients")
	perClient := fs.Int("requests", 10, "requests per client")
	destsPer := fs.Int("dests", 2, "destinations per request")
	allPairs := fs.Bool("allpairs", false, "stream full tables from /v1/allpairs instead of /v1/solve (ignores -dests)")
	updates := fs.Int("updates", 0, "dynamic-graph session mode: update batches per client pushed through /v1/session (ignores -requests)")
	updateSize := fs.Int("update-size", 1, "weight edits per update batch in -updates mode")
	graphs := fs.Int("graphs", 1, "distinct graphs to rotate over (generator seeds seed..seed+K-1)")
	zipfS := fs.Float64("zipf", 0, "Zipf skew s > 1 for graph selection (0 = uniform stripe)")
	timeoutMS := fs.Int64("timeout-ms", 0, "per-request deadline sent to the server (0 = server default)")
	bits := fs.Uint("bits", 0, "machine word width h forced on the server (0 = auto)")
	inline := fs.Bool("inline", false, "send the graph inline instead of as a generator spec")
	verify := fs.Bool("verify", true, "check every response against Bellman-Ford")
	asJSON := fs.Bool("json", false, "emit the machine-readable summary")
	workers := fs.Int("workers", 0, "selfserve: solver workers (0 = GOMAXPROCS)")
	backendWorkers := fs.Int("backend-workers", 1, "fleet: solver workers per backend")
	backendDelay := fs.Duration("backend-delay", 0, "fleet: per-batch device occupancy emulated on each backend")
	routerCache := fs.Int("router-cache", 4096, "fleet: router result cache entries")
	routerVNodes := fs.Int("router-vnodes", 64, "fleet: virtual nodes per backend")
	if err := fs.Parse(args); err != nil {
		return err
	}
	modes := 0
	for _, on := range []bool{*url != "", *targets != "", *selfserve, *fleet != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("need exactly one of -url, -targets, -selfserve or -fleet")
	}
	if *clients < 1 || *perClient < 1 || *destsPer < 1 {
		return fmt.Errorf("-c, -requests and -dests must be positive")
	}
	if *graphs < 1 {
		return fmt.Errorf("-graphs must be positive")
	}
	if *zipfS != 0 && *zipfS <= 1 {
		return fmt.Errorf("-zipf must be > 1 (or 0 to disable)")
	}
	if *graphs > 1 && w.File != "" {
		return fmt.Errorf("-graphs > 1 needs a generator workload, not -graph file")
	}
	if *allPairs && *fleet != "" {
		return fmt.Errorf("-allpairs drives backends directly; it does not combine with -fleet")
	}
	if *updates > 0 && (*fleet != "" || *zipfS != 0) {
		return fmt.Errorf("-updates does not combine with -fleet or -zipf")
	}
	if *updates > 0 && *updateSize < 1 {
		return fmt.Errorf("-update-size must be positive")
	}

	gs, err := buildGraphs(&w, *graphs)
	if err != nil {
		return err
	}
	n := gs[0].N
	if *destsPer > n {
		*destsPer = n
	}

	if *fleet != "" {
		sizes, err := parseSizes(*fleet)
		if err != nil {
			return err
		}
		return runFleet(out, fleetSpec{
			sizes: sizes, w: w, graphs: gs,
			clients: *clients, perClient: *perClient, destsPer: *destsPer,
			zipfS: *zipfS, verify: *verify, asJSON: *asJSON,
			backendWorkers: *backendWorkers, backendDelay: *backendDelay,
			routerCache: *routerCache, routerVNodes: *routerVNodes,
		})
	}

	var targetList []string
	switch {
	case *url != "":
		targetList = []string{*url}
	case *targets != "":
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targetList = append(targetList, t)
			}
		}
		if len(targetList) == 0 {
			return fmt.Errorf("-targets is empty after parsing")
		}
	case *selfserve:
		cfg := serve.Config{Workers: *workers, MaxVertices: n}
		if *updates > 0 {
			// Every client owns one session; don't let the session quota
			// under-admit the requested concurrency.
			cfg.MaxSessions = *clients
			if *destsPer > cfg.MaxSessionDests {
				cfg.MaxSessionDests = *destsPer
			}
		}
		svc := serve.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: svc.Handler()}
		go httpSrv.Serve(ln)
		targetList = []string{"http://" + ln.Addr().String()}
		defer func() {
			stopServer(httpSrv)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		}()
	}

	var sum Summary
	if *updates > 0 {
		sum, err = runUpdates(loadSpec{
			targets: targetList, w: w, graphs: gs,
			clients: *clients, perClient: *updates, destsPer: *destsPer,
			verify: *verify, allPairs: *allPairs, out: out,
		}, *updates, *updateSize)
	} else {
		sum, err = runLoad(loadSpec{
			targets: targetList, w: w, graphs: gs,
			clients: *clients, perClient: *perClient, destsPer: *destsPer,
			timeoutMS: *timeoutMS, bits: *bits, inline: *inline,
			verify: *verify, zipfS: *zipfS, allPairs: *allPairs, out: out,
		})
	}
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else if sum.UpdatesMode {
		printUpdatesSummary(out, &sum, *verify)
	} else {
		printSummary(out, &w, &sum, *verify)
	}
	return checkSummary(&sum, *verify)
}

// buildGraphs builds k graphs from the workload spec, varying the seed.
func buildGraphs(w *cli.Workload, k int) ([]*graph.Graph, error) {
	gs := make([]*graph.Graph, k)
	for i := range gs {
		wi := *w
		wi.Seed = w.Seed + int64(i)
		g, err := wi.Build()
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	return gs, nil
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad fleet size %q", f)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("empty -fleet list")
	}
	return sizes, nil
}

// loadSpec is one load run: targets, workload, and client shape.
type loadSpec struct {
	targets   []string
	w         cli.Workload
	graphs    []*graph.Graph
	seeds     []int64 // generator seed per graph (nil: w.Seed+i)
	clients   int
	perClient int
	destsPer  int
	timeoutMS int64
	bits      uint
	inline    bool
	verify    bool
	zipfS     float64 // 0 = uniform stripe over graphs
	mix       string  // label for the summary ("", "miss", "zipf")
	backends  int     // informational, for fleet rows
	allPairs  bool    // stream full tables from /v1/allpairs
	out       io.Writer
}

// pickGraph returns the graph index and destination list for request r
// of client c. The stripe mix walks all graphs with (nearly) unique
// (graph, dests) pairs — a cache-miss workload; the Zipf mix
// concentrates on hot graphs with a small per-graph dest vocabulary, so
// identical requests recur and the front-door cache can engage.
func (s *loadSpec) pickGraph(zipf *rand.Zipf, zipfMu *sync.Mutex, c, r int) (int, []int) {
	n := s.graphs[0].N
	k := len(s.graphs)
	dests := make([]int, s.destsPer)
	if zipf != nil {
		zipfMu.Lock()
		gi := int(zipf.Uint64())
		zipfMu.Unlock()
		for i := range dests {
			dests[i] = (gi*13 + (r%4)*5 + i*7) % n
		}
		return gi, dests
	}
	if k == 1 {
		for i := range dests {
			dests[i] = (c*31 + r*7 + i*13) % n
		}
		return 0, dests
	}
	// Graph index (c+r)%k keeps the concurrent clients on k *different*
	// graphs at any instant (a plain stripe over c*perClient+r collapses
	// to lockstep waves whenever perClient is a multiple of k), while the
	// unique request ordinal keeps the (graph, dests) identity fresh — a
	// true cache-miss workload.
	base := c*s.perClient + r
	gi := (c + r) % k
	for i := range dests {
		dests[i] = (base + i*13) % n
	}
	return gi, dests
}

// runLoad drives the closed loop against s.targets and tallies the
// Summary. Clients spread round-robin over the targets.
func runLoad(s loadSpec) (Summary, error) {
	graphJSON := make([][]byte, len(s.graphs))
	specJSON := make([][]byte, len(s.graphs))
	for i, g := range s.graphs {
		var err error
		if graphJSON[i], err = json.Marshal(g); err != nil {
			return Summary{}, err
		}
		wi := s.w
		wi.Seed = s.w.Seed + int64(i)
		if s.seeds != nil {
			wi.Seed = s.seeds[i]
		}
		if specJSON[i], err = json.Marshal(&wi); err != nil {
			return Summary{}, err
		}
	}

	// Sequential references, computed lazily once per (graph, dest).
	var refMu sync.Mutex
	refs := make(map[int64]*graph.Result)
	reference := func(gi int) func(int) (*graph.Result, error) {
		return func(dest int) (*graph.Result, error) {
			key := int64(gi)<<32 | int64(dest)
			refMu.Lock()
			defer refMu.Unlock()
			if r, ok := refs[key]; ok {
				return r, nil
			}
			r, err := graph.BellmanFord(s.graphs[gi], dest)
			if err == nil {
				refs[key] = r
			}
			return r, err
		}
	}

	var zipf *rand.Zipf
	var zipfMu sync.Mutex
	if s.zipfS > 1 && len(s.graphs) > 1 {
		zipf = rand.NewZipf(rand.New(rand.NewSource(1)), s.zipfS, 1, uint64(len(s.graphs)-1))
	}

	sum := Summary{
		Target: strings.Join(s.targets, ","), Gen: s.w, N: s.graphs[0].N,
		Clients: s.clients, PerClient: s.perClient, DestsPerRequest: s.destsPer,
		Graphs: len(s.graphs), Zipf: s.zipfS, Mix: s.mix, Backends: s.backends,
	}
	var mu sync.Mutex // guards sum tallies and latencies
	var latencies, firstRows, fullTables []float64
	httpClient := &http.Client{Timeout: 5 * time.Minute}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			target := s.targets[c%len(s.targets)]
			for r := 0; r < s.perClient; r++ {
				gi, dests := s.pickGraph(zipf, &zipfMu, c, r)
				if s.allPairs {
					apReq := serve.AllPairsRequest{Bits: s.bits, TimeoutMS: s.timeoutMS}
					if s.inline || s.w.File != "" {
						apReq.Graph = graphJSON[gi]
					} else {
						apReq.Gen = specJSON[gi]
					}
					body, _ := json.Marshal(apReq)

					var ar apResult
					var reqErr error
					for attempt := 0; attempt < 5; attempt++ {
						ar, reqErr = apPost(httpClient, target, body)
						if ar.code != http.StatusTooManyRequests {
							break
						}
						mu.Lock()
						sum.Shed429++
						mu.Unlock()
						time.Sleep(50 * time.Millisecond)
					}

					mu.Lock()
					sum.Requests++
					latencies = append(latencies, float64(ar.total.Milliseconds()))
					sum.RowsStreamed += int64(len(ar.rows))
					switch {
					case reqErr != nil:
						sum.Errors++
					case ar.code == http.StatusOK && ar.done:
						sum.OK++
						sum.Solves += int64(len(ar.rows))
						if ar.trailer.PoolHit {
							sum.PoolHits++
						}
						firstRows = append(firstRows, float64(ar.firstRow.Milliseconds()))
						fullTables = append(fullTables, float64(ar.total.Milliseconds()))
					case ar.code == http.StatusOK:
						// The stream was committed but ended without a done
						// trailer: a mid-flight deadline or failure.
						if strings.Contains(ar.errLine, "deadline") || strings.Contains(ar.errLine, "cancel") {
							sum.Deadline++
						} else {
							sum.Errors++
						}
					case ar.code == http.StatusTooManyRequests:
						sum.Unserved++
					case ar.code == http.StatusGatewayTimeout:
						sum.Deadline++
					default:
						sum.Errors++
					}
					mu.Unlock()

					if ar.code == http.StatusOK && ar.done && s.verify {
						if err := verifyTable(s.graphs[gi], ar.rows, reference(gi)); err != nil {
							mu.Lock()
							sum.Errors++
							sum.OK--
							mu.Unlock()
							fmt.Fprintf(s.out, "VERIFY FAILED (client %d req %d): %v\n", c, r, err)
						} else {
							mu.Lock()
							sum.Verified++
							mu.Unlock()
						}
					}
					continue
				}
				req := serve.SolveRequest{Dests: dests, Bits: s.bits, TimeoutMS: s.timeoutMS}
				if s.inline || s.w.File != "" {
					req.Graph = graphJSON[gi]
				} else {
					req.Gen = specJSON[gi]
				}
				body, _ := json.Marshal(req)

				var pr postResult
				var reqErr error
				var elapsed time.Duration
				for attempt := 0; attempt < 5; attempt++ {
					t0 := time.Now()
					pr, reqErr = post(httpClient, target, body)
					elapsed = time.Since(t0)
					if pr.code != http.StatusTooManyRequests {
						break
					}
					mu.Lock()
					sum.Shed429++
					mu.Unlock()
					time.Sleep(50 * time.Millisecond) // closed-loop backoff
				}

				mu.Lock()
				sum.Requests++
				latencies = append(latencies, float64(elapsed.Milliseconds()))
				switch {
				case reqErr != nil:
					sum.Errors++
				case pr.code == http.StatusOK:
					sum.OK++
					sum.Solves += int64(len(pr.sr.Results))
					if pr.sr.PoolHit {
						sum.PoolHits++
					}
					if pr.sr.Batched > 1 {
						sum.Coalesced++
					}
					switch pr.cacheSrc {
					case "hit":
						sum.CacheHits++
					case "collapsed":
						sum.CacheCollapsed++
					}
					if pr.backend != "" {
						if sum.BackendSpread == nil {
							sum.BackendSpread = make(map[string]int)
						}
						sum.BackendSpread[pr.backend]++
					}
				case pr.code == http.StatusTooManyRequests:
					// The server is still shedding after every retry: the
					// request went unserved by design (admission control),
					// which is not a failure of the serving path.
					sum.Unserved++
				case pr.code == http.StatusGatewayTimeout:
					sum.Deadline++
				default:
					sum.Errors++
				}
				mu.Unlock()

				if pr.code == http.StatusOK && s.verify {
					if err := verifyResponse(s.graphs[gi], &pr.sr, dests, reference(gi)); err != nil {
						mu.Lock()
						sum.Errors++
						sum.OK--
						mu.Unlock()
						fmt.Fprintf(s.out, "VERIFY FAILED (client %d req %d): %v\n", c, r, err)
					} else {
						mu.Lock()
						sum.Verified++
						mu.Unlock()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	sum.DurationS = time.Since(start).Seconds()
	if sum.DurationS > 0 {
		sum.Throughput = float64(sum.OK) / sum.DurationS
	}
	if sum.OK > 0 {
		sum.CacheHitRatio = float64(sum.CacheHits+sum.CacheCollapsed) / float64(sum.OK)
	}
	sum.LatencyMS = percentilesOf(latencies)
	if s.allPairs {
		sum.AllPairs = true
		fr, ft := percentilesOf(firstRows), percentilesOf(fullTables)
		sum.FirstRowMS, sum.FullTableMS = &fr, &ft
	}
	return sum, nil
}

// percentilesOf sorts ms in place and summarizes it.
func percentilesOf(ms []float64) Percentiles {
	sort.Float64s(ms)
	pct := func(p float64) float64 {
		if len(ms) == 0 {
			return 0
		}
		return ms[int(p*float64(len(ms)-1))]
	}
	out := Percentiles{P50: pct(0.50), P90: pct(0.90), P99: pct(0.99)}
	if n := len(ms); n > 0 {
		out.Max = ms[n-1]
	}
	return out
}

// checkSummary turns bad tallies into a process-level failure.
func checkSummary(sum *Summary, verify bool) error {
	if verify && sum.Verified != sum.OK {
		return fmt.Errorf("%d of %d responses failed verification", sum.OK-sum.Verified, sum.OK)
	}
	if sum.Errors > 0 {
		return fmt.Errorf("%d requests failed", sum.Errors)
	}
	return nil
}

func printSummary(out io.Writer, w *cli.Workload, sum *Summary, verify bool) {
	fmt.Fprintf(out, "target %s  graph n=%d (%s, %d graphs)\n", sum.Target, sum.N, describe(w), sum.Graphs)
	fmt.Fprintf(out, "%d clients x %d requests x %d dests: %d ok, %d shed(429), %d unserved, %d deadline, %d errors\n",
		sum.Clients, sum.PerClient, sum.DestsPerRequest, sum.OK, sum.Shed429, sum.Unserved, sum.Deadline, sum.Errors)
	fmt.Fprintf(out, "throughput %.1f req/s over %.2fs  (%d dest solves; pool hits %d, coalesced %d)\n",
		sum.Throughput, sum.DurationS, sum.Solves, sum.PoolHits, sum.Coalesced)
	if sum.CacheHits+sum.CacheCollapsed > 0 {
		fmt.Fprintf(out, "front cache: %d hits, %d collapsed (%.0f%% of ok)\n",
			sum.CacheHits, sum.CacheCollapsed, 100*sum.CacheHitRatio)
	}
	fmt.Fprintf(out, "latency ms: p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
		sum.LatencyMS.P50, sum.LatencyMS.P90, sum.LatencyMS.P99, sum.LatencyMS.Max)
	if sum.AllPairs && sum.FirstRowMS != nil {
		fmt.Fprintf(out, "allpairs: %d rows streamed; first-row ms p50=%.0f p99=%.0f; full-table ms p50=%.0f p99=%.0f\n",
			sum.RowsStreamed, sum.FirstRowMS.P50, sum.FirstRowMS.P99, sum.FullTableMS.P50, sum.FullTableMS.P99)
	}
	if verify {
		fmt.Fprintf(out, "verified %d/%d responses against Bellman-Ford\n", sum.Verified, sum.OK)
	}
}

// fleetSpec shapes one -fleet sweep.
type fleetSpec struct {
	sizes          []int
	w              cli.Workload
	graphs         []*graph.Graph
	clients        int
	perClient      int
	destsPer       int
	zipfS          float64
	verify         bool
	asJSON         bool
	backendWorkers int
	backendDelay   time.Duration
	routerCache    int
	routerVNodes   int
}

// runFleet boots, for each fleet size, that many in-process ppaserved
// backends behind an in-process pparouter, and runs two rows through
// the front door: a cache-miss stripe (every request a fresh identity —
// measures backend scaling) and a Zipf mix (hot graphs recur — measures
// the front-door cache).
func runFleet(out io.Writer, fs fleetSpec) error {
	if len(fs.graphs) == 1 {
		// A fleet sweep over one graph would pin everything to one
		// backend; default to a healthy rotation.
		gs, err := buildGraphs(&fs.w, 16)
		if err != nil {
			return err
		}
		fs.graphs = gs
	}
	zipfS := fs.zipfS
	if zipfS == 0 {
		zipfS = 1.4
	}
	report := FleetReport{
		HostCPUs:       runtime.NumCPU(),
		BackendWorkers: fs.backendWorkers,
		BackendDelayMS: float64(fs.backendDelay) / float64(time.Millisecond),
		RouterVNodes:   fs.routerVNodes,
		RouterCache:    fs.routerCache,
		Note: "backend-delay emulates per-batch device occupancy on each backend; " +
			"with it set, throughput scaling across fleet sizes reflects request " +
			"placement rather than host CPU parallelism",
	}

	for _, size := range fs.sizes {
		rows, err := runFleetSize(out, &fs, size, zipfS)
		if err != nil {
			return err
		}
		report.Rows = append(report.Rows, rows...)
	}

	if fs.asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	for i := range report.Rows {
		r := &report.Rows[i]
		fmt.Fprintf(out, "fleet=%d mix=%-4s  %.1f req/s  ok=%d unserved=%d cache=%.0f%%  p50=%.0fms p99=%.0fms\n",
			r.Backends, r.Mix, r.Throughput, r.OK, r.Unserved, 100*r.CacheHitRatio, r.LatencyMS.P50, r.LatencyMS.P99)
	}
	return nil
}

// stopServer stops an in-process server once every load client has
// returned. Nothing is left to drain then but connections a client
// dialed and never used, which Shutdown counts idle only after ~5 s, so
// Shutdown gets a short deadline and Close ends what is left.
func stopServer(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	srv.Shutdown(ctx)
	srv.Close()
}

// runFleetSize boots one fleet of the given size, runs the miss and
// Zipf rows, and tears the fleet down.
func runFleetSize(out io.Writer, fs *fleetSpec, size int, zipfS float64) ([]Summary, error) {
	n := fs.graphs[0].N
	type backend struct {
		svc *serve.Server
		srv *http.Server
	}
	var backends []backend
	var urls []string
	shutdownAll := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, b := range backends {
			stopServer(b.srv)
			b.svc.Shutdown(ctx)
		}
	}
	for i := 0; i < size; i++ {
		svc := serve.New(serve.Config{
			Workers:     fs.backendWorkers,
			MaxVertices: n,
			SolveDelay:  fs.backendDelay,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdownAll()
			return nil, err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln)
		backends = append(backends, backend{svc, srv})
		urls = append(urls, "http://"+ln.Addr().String())
	}
	rt, err := router.New(router.Config{
		Backends:     urls,
		VNodes:       fs.routerVNodes,
		CacheEntries: fs.routerCache,
	})
	if err != nil {
		shutdownAll()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownAll()
		return nil, err
	}
	front := &http.Server{Handler: rt.Handler()}
	go front.Serve(ln)
	frontURL := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		stopServer(front)
		rt.Shutdown(ctx)
		shutdownAll()
	}()

	// Pick a placement-balanced graph set for this fleet: each backend
	// owns an equal share, so the rows measure aggregate capacity rather
	// than the placement luck of one particular draw.
	rowGraphs, rowSeeds, err := balancedGraphs(fs.w, fs.graphs, urls, fs.routerVNodes)
	if err != nil {
		return nil, err
	}

	var rows []Summary
	for _, mix := range []struct {
		name string
		zipf float64
	}{{"miss", 0}, {"zipf", zipfS}} {
		sum, err := runLoad(loadSpec{
			targets: []string{frontURL}, w: fs.w, graphs: rowGraphs, seeds: rowSeeds,
			clients: fs.clients, perClient: fs.perClient, destsPer: fs.destsPer,
			verify: fs.verify, zipfS: mix.zipf, mix: mix.name, backends: size,
			out: out,
		})
		if err != nil {
			return nil, err
		}
		if err := checkSummary(&sum, fs.verify); err != nil {
			return nil, fmt.Errorf("fleet=%d mix=%s: %w", size, mix.name, err)
		}
		rows = append(rows, sum)
	}
	return rows, nil
}

// balancedGraphs picks len(want) graphs from a 4x candidate pool (seeds
// w.Seed..w.Seed+4k-1) so that consecutive picks rotate through the
// backends that will own them on the fleet's hash ring — the same ring
// the router builds (same member URLs, same vnode count). The returned
// seed list records which generator seed produced each pick.
func balancedGraphs(w cli.Workload, want []*graph.Graph, urls []string, vnodes int) ([]*graph.Graph, []int64, error) {
	k := len(want)
	if len(urls) <= 1 {
		return want, nil, nil // one backend: placement is moot
	}
	pool := 4 * k
	cands, err := buildGraphs(&w, pool)
	if err != nil {
		return nil, nil, err
	}
	ring := router.NewRing(urls, vnodes)
	buckets := make(map[string][]int) // owner -> candidate indices
	for i, g := range cands {
		h, err := serve.PickBits(g, 0)
		if err != nil {
			return nil, nil, err
		}
		owner, _ := ring.Lookup(graph.Fingerprint(g, h))
		buckets[owner] = append(buckets[owner], i)
	}
	members := ring.Members()
	var idx []int
	for round := 0; len(idx) < k; round++ {
		progressed := false
		for _, m := range members {
			if len(idx) >= k {
				break
			}
			if round < len(buckets[m]) {
				idx = append(idx, buckets[m][round])
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	used := make(map[int]bool, len(idx))
	for _, i := range idx {
		used[i] = true
	}
	for i := 0; len(idx) < k && i < pool; i++ {
		if !used[i] {
			idx = append(idx, i)
		}
	}
	gs := make([]*graph.Graph, len(idx))
	seeds := make([]int64, len(idx))
	for j, i := range idx {
		gs[j] = cands[i]
		seeds[j] = w.Seed + int64(i)
	}
	return gs, seeds, nil
}

func describe(w *cli.Workload) string {
	if w.File != "" {
		return "file " + w.File
	}
	gen := w.Gen
	if gen == "" {
		gen = "random"
	}
	return "gen " + gen + " seed " + strconv.FormatInt(w.Seed, 10)
}

// postResult is one exchange as the client saw it: status code, the
// router's X-Ppa-Cache and X-Ppa-Backend headers (empty against a bare
// ppaserved), and the decoded 200 body.
type postResult struct {
	code     int
	cacheSrc string
	backend  string
	sr       serve.SolveResponse
}

// post issues one solve request; non-2xx bodies are decoded for their
// error text but reported via the status code.
func post(c *http.Client, target string, body []byte) (postResult, error) {
	var pr postResult
	resp, err := c.Post(target+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return pr, err
	}
	defer resp.Body.Close()
	pr.code = resp.StatusCode
	pr.cacheSrc = resp.Header.Get("X-Ppa-Cache")
	pr.backend = resp.Header.Get("X-Ppa-Backend")
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return pr, err
	}
	if resp.StatusCode != http.StatusOK {
		return pr, nil
	}
	if err := json.Unmarshal(data, &pr.sr); err != nil {
		return pr, err
	}
	return pr, nil
}

// apResult is one /v1/allpairs exchange as the client saw it: the parsed
// stream plus the two latencies the mode exists to measure — time to the
// first streamed row and time to the full table.
type apResult struct {
	code     int
	rows     []serve.DestResult
	done     bool
	trailer  serve.AllPairsTrailer
	errLine  string
	firstRow time.Duration
	total    time.Duration
}

// apPost issues one all-pairs request and drains the NDJSON stream. Lines
// are classified by their discriminating key: the header comes first,
// "done" marks the trailer, "error" a mid-stream failure, anything else a
// destination row.
func apPost(c *http.Client, target string, body []byte) (apResult, error) {
	var ar apResult
	t0 := time.Now()
	resp, err := c.Post(target+"/v1/allpairs", "application/json", bytes.NewReader(body))
	if err != nil {
		return ar, err
	}
	defer resp.Body.Close()
	ar.code = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		ar.total = time.Since(t0)
		return ar, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawHeader := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !sawHeader {
			sawHeader = true
			continue
		}
		var probe struct {
			Done  *bool   `json:"done"`
			Error *string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return ar, err
		}
		switch {
		case probe.Error != nil:
			ar.errLine = *probe.Error
		case probe.Done != nil:
			if err := json.Unmarshal(line, &ar.trailer); err != nil {
				return ar, err
			}
			ar.done = ar.trailer.Done
		default:
			var dr serve.DestResult
			if err := json.Unmarshal(line, &dr); err != nil {
				return ar, err
			}
			if len(ar.rows) == 0 {
				ar.firstRow = time.Since(t0)
			}
			ar.rows = append(ar.rows, dr)
		}
	}
	if err := sc.Err(); err != nil {
		return ar, err
	}
	ar.total = time.Since(t0)
	return ar, nil
}

// verifyTable checks a streamed all-pairs table: one row per destination
// in ascending order, each verified like a solve response.
func verifyTable(g *graph.Graph, rows []serve.DestResult, reference func(int) (*graph.Result, error)) error {
	if len(rows) != g.N {
		return fmt.Errorf("%d rows for n=%d", len(rows), g.N)
	}
	dests := make([]int, g.N)
	for d := range dests {
		dests[d] = d
	}
	return verifyResponse(g, &serve.SolveResponse{Results: rows}, dests, reference)
}

// verifyResponse checks distances against Bellman-Ford and certifies the
// returned next-hop pointers by walking them.
func verifyResponse(g *graph.Graph, sr *serve.SolveResponse, dests []int, reference func(int) (*graph.Result, error)) error {
	if len(sr.Results) != len(dests) {
		return fmt.Errorf("%d results for %d dests", len(sr.Results), len(dests))
	}
	for k, dr := range sr.Results {
		if dr.Dest != dests[k] {
			return fmt.Errorf("result %d is for dest %d, want %d", k, dr.Dest, dests[k])
		}
		want, err := reference(dr.Dest)
		if err != nil {
			return err
		}
		res := graph.Result{Dest: dr.Dest, Dist: make([]int64, g.N), Next: dr.Next, Iterations: dr.Iterations}
		for i, d := range dr.Dist {
			if d < 0 {
				res.Dist[i] = graph.NoEdge
			} else {
				res.Dist[i] = d
			}
		}
		if !graph.SameDistances(&res, want) {
			return fmt.Errorf("dest %d: distances diverge from Bellman-Ford", dr.Dest)
		}
		if err := graph.CheckResult(g, &res); err != nil {
			return fmt.Errorf("dest %d: %v", dr.Dest, err)
		}
	}
	return nil
}
