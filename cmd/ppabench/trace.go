package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/router"
	"ppamcp/internal/serve"
)

// This file is the traced run: it replays a workload's operations
// in-process through the layers' public functions (graph, serve, core,
// router), wrapping every call in a span. Spans are recorded from the
// benchmark's side of each call, so they time a layer from outside; the
// daemons carry no tracing of their own.

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the enclosing span's ID (-1 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. With on false, begin and end do nothing,
// which is the untraced side of the overhead measurement.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// durations returns each span name's durations and self times (duration
// minus the time its child spans cover) in milliseconds.
func (t *tracer) durations() (dur, self map[string][]float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	dur, self = map[string][]float64{}, map[string][]float64{}
	for i, s := range t.spans {
		d := s.End - s.Start
		dur[s.Name] = append(dur[s.Name], float64(d)/1e6)
		self[s.Name] = append(self[s.Name], float64(d-child[i])/1e6)
	}
	return dur, self
}

// replayer is the in-process stand-in for the workload's servers: a
// session pool per backend, for fleet-zipf a ring and front cache, and
// for session-churn the live core sessions.
type replayer struct {
	in    *inputs
	t     *tracer
	ctx   context.Context
	pools map[string]*serve.Pool
	ring  *router.Ring
	cache *router.Cache
	fps   []uint64 // per graph: graph.Fingerprint, the router's memoized identity
	keys  []string // per graph: digest prefix of the router's cache key
	sess  []*core.Session
	seqs  []uint64
	cyc   []*cycle
	all   []int
	req   []byte       // request body scratch
	buf   bytes.Buffer // response encoding scratch

	// Counters over core results of the op stream (not probes).
	counting   bool
	rows, zero int
	iters      int64
	comm       int64
}

var backendNames = []string{"backend-0", "backend-1"}

func newReplayer(ctx context.Context, in *inputs, t *tracer) (*replayer, error) {
	r := &replayer{in: in, t: t, ctx: ctx, pools: map[string]*serve.Pool{}}
	for _, b := range backendNames {
		r.pools[b] = serve.NewPool(64, 1, 0)
	}
	r.ring = router.NewRing(backendNames, 64)
	r.cache = router.NewCache(fleetCacheEntries, 64<<20)
	for i, g := range in.graphs {
		h, err := serve.PickBits(g, 0)
		if err != nil {
			return nil, err
		}
		r.fps = append(r.fps, graph.Fingerprint(g, h))
		sum := sha256.Sum256(in.gjson[i])
		r.keys = append(r.keys, hex.EncodeToString(sum[:]))
	}
	for d := 0; d < in.n; d++ {
		r.all = append(r.all, d)
	}
	// Session state: the workload's own cycles, or for other workloads one
	// probe session on graph 0 with a cycle drawn here.
	r.cyc = in.cycles
	if len(r.cyc) == 0 {
		c, err := newCycle(in.graphs[0], in.ref[0], rand.New(rand.NewSource(int64(r.fps[0]))))
		if err != nil {
			return nil, err
		}
		r.cyc = []*cycle{c}
	}
	for _, c := range r.cyc {
		s, err := core.NewSession(c.states[0].Clone(), core.Options{})
		if err != nil {
			return nil, err
		}
		if err := s.ResolveSweep(ctx, r.all, func(*core.Result) error { return nil }); err != nil {
			return nil, err
		}
		r.sess = append(r.sess, s)
		r.seqs = append(r.seqs, 0)
	}
	return r, nil
}

func (r *replayer) close() {
	for _, s := range r.sess {
		s.Close()
	}
	for _, p := range r.pools {
		p.Close()
	}
}

func (r *replayer) count(res *core.Result) {
	if !r.counting {
		return
	}
	r.rows++
	if res.Iterations == 0 {
		r.zero++
	}
	r.iters += int64(res.Iterations)
	r.comm += res.Metrics.CommCycles()
}

// replay runs one operation of the workload's stream; opID tags its spans.
func (r *replayer) replay(o op, opID int) error {
	switch {
	case r.in.w.kind == opAllPairs:
		return r.allPairs(o.graph, -1, opID)
	case r.in.w.kind == opSession:
		return r.update(o.graph, -1, opID)
	case r.in.w.fleet:
		return r.routed(o, opID)
	default:
		_, err := r.solve(o.graph, o.dests, r.pools[backendNames[0]], -1, opID)
		return err
	}
}

// decode is the server's request admission: JSON decode and graph build,
// validation with width selection, and the fingerprint batching keys on.
func (r *replayer) decode(body []byte, parent, opID int) (*graph.Graph, uint, error) {
	sp := r.t.begin("graph.decode", parent, opID)
	var req serve.SolveRequest
	err := json.Unmarshal(body, &req)
	var g *graph.Graph
	if err == nil {
		g, err = req.BuildGraph(graph.MaxParseVertices)
	}
	r.t.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = r.t.begin("graph.validate", parent, opID)
	err = g.Validate()
	h, herr := serve.PickBits(g, 0)
	r.t.end(sp)
	if err != nil || herr != nil {
		return nil, 0, fmt.Errorf("validate: %v %v", err, herr)
	}
	sp = r.t.begin("graph.fingerprint", parent, opID)
	graph.Fingerprint(g, h)
	r.t.end(sp)
	return g, h, nil
}

// solve is one /v1/solve on one backend's pool; it returns the encoded
// response body.
func (r *replayer) solve(gi int, dests []int, pool *serve.Pool, parent, opID int) ([]byte, error) {
	root := r.t.begin("serve.request", parent, opID)
	defer r.t.end(root)
	r.req = r.in.solveBody(r.req, gi, dests)
	g, h, err := r.decode(r.req, root, opID)
	if err != nil {
		return nil, err
	}
	sp := r.t.begin("serve.pool_get", root, opID)
	sess, hit, err := pool.Get(g, h)
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	defer pool.Put(sess)
	results := make([]*core.Result, 0, len(dests))
	for _, d := range dests {
		sp := r.t.begin("core.solve", root, opID)
		res, err := sess.SolveContext(r.ctx, d)
		r.t.end(sp)
		if err != nil {
			return nil, err
		}
		r.count(res)
		results = append(results, res)
	}
	sp = r.t.begin("serve.encode", root, opID)
	resp := serve.SolveResponse{N: g.N, Bits: h, PoolHit: hit, Batched: 1}
	for _, res := range results {
		resp.Results = append(resp.Results, destResult(res))
		resp.Cost = resp.Cost.Add(res.Metrics)
	}
	out, err := json.Marshal(resp)
	r.t.end(sp)
	return out, err
}

// routed is one fleet-zipf request: ring placement by the memoized
// fingerprint, a front-cache lookup, and on a miss the owning backend's
// solve with its body cached.
func (r *replayer) routed(o op, opID int) error {
	root := r.t.begin("router.request", -1, opID)
	defer r.t.end(root)
	sp := r.t.begin("router.lookup", root, opID)
	member, _ := r.ring.Lookup(r.fps[o.graph])
	r.t.end(sp)
	key := r.keys[o.graph] + "|" + strconv.Itoa(o.key)
	sp = r.t.begin("router.cache_get", root, opID)
	_, hit := r.cache.Get(key)
	r.t.end(sp)
	if hit {
		return nil
	}
	body, err := r.solve(o.graph, o.dests, r.pools[member], root, opID)
	if err != nil {
		return err
	}
	r.cache.Put(key, body)
	return nil
}

// allPairs is one /v1/allpairs table: the sweep yields every row, and the
// NDJSON stream (header, rows, trailer) is encoded after it.
func (r *replayer) allPairs(gi, parent, opID int) error {
	root := r.t.begin("serve.request", parent, opID)
	defer r.t.end(root)
	g, h, err := r.decode(r.in.allPairsBody(gi), root, opID)
	if err != nil {
		return err
	}
	pool := r.pools[backendNames[0]]
	sp := r.t.begin("serve.pool_get", root, opID)
	sess, hit, err := pool.Get(g, h)
	r.t.end(sp)
	if err != nil {
		return err
	}
	defer pool.Put(sess)
	results := make([]*core.Result, 0, g.N)
	sweep := r.t.begin("core.sweep", root, opID)
	first := r.t.begin("core.sweep_first_row", sweep, opID)
	err = sess.SolveSweep(r.ctx, r.all, func(res *core.Result) error {
		if len(results) == 0 {
			r.t.end(first)
		}
		r.count(res)
		results = append(results, res)
		return nil
	})
	r.t.end(sweep)
	if err != nil {
		return err
	}
	sp = r.t.begin("serve.encode", root, opID)
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	err = enc.Encode(serve.AllPairsHeader{N: g.N, Bits: h})
	tr := serve.AllPairsTrailer{Done: true, Rows: len(results), PoolHit: hit}
	for _, res := range results {
		if err == nil {
			err = enc.Encode(destResult(res))
		}
		tr.Cost = tr.Cost.Add(res.Metrics)
		tr.Iterations += res.Iterations
	}
	if err == nil {
		err = enc.Encode(tr)
	}
	r.t.end(sp)
	return err
}

// update is one session-churn batch on session si: the sparse weight
// update, the warm all-destination re-solve, and the generation's NDJSON.
func (r *replayer) update(si, parent, opID int) error {
	root := r.t.begin("serve.request", parent, opID)
	defer r.t.end(root)
	sess, c := r.sess[si], r.cyc[si]
	r.seqs[si]++
	seq := r.seqs[si]
	sp := r.t.begin("core.update", root, opID)
	err := sess.Update(c.updates[c.batch(seq)])
	r.t.end(sp)
	if err != nil {
		return err
	}
	results := make([]*core.Result, 0, len(r.all))
	sp = r.t.begin("core.resolve_sweep", root, opID)
	err = sess.ResolveSweep(r.ctx, r.all, func(res *core.Result) error {
		r.count(res)
		results = append(results, res)
		return nil
	})
	r.t.end(sp)
	if err != nil {
		return err
	}
	sp = r.t.begin("serve.encode", root, opID)
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	tr := serve.SessionTrailer{Seq: seq, Rows: len(results)}
	for _, res := range results {
		if err == nil {
			err = enc.Encode(serve.SessionRow{Seq: seq, DestResult: destResult(res)})
		}
		tr.Cost = tr.Cost.Add(res.Metrics)
		tr.Iterations += res.Iterations
	}
	if err == nil {
		err = enc.Encode(tr)
	}
	r.t.end(sp)
	return err
}

// destResult is the wire form of a core result, as the server renders it
// (-1 for unreachable).
func destResult(res *core.Result) serve.DestResult {
	out := serve.DestResult{Dest: res.Dest, Dist: make([]int64, len(res.Dist)), Next: res.Next, Iterations: res.Iterations}
	for i, d := range res.Dist {
		if d == graph.NoEdge {
			out.Dist[i] = -1
		} else {
			out.Dist[i] = d
		}
	}
	return out
}

// probeMin is the fewest samples any per-layer timing is reported from.
const probeMin = 10

// probe fills the layers the workload's own stream does not reach, on the
// workload's graphs, until every per-layer span has probeMin samples.
// core.new_session is always probed: no server builds sessions per
// operation.
func (r *replayer) probe(dur map[string][]float64, opID *int) error {
	need := func(names ...string) bool {
		for _, n := range names {
			if len(dur[n]) < probeMin {
				return true
			}
		}
		return false
	}
	G, n := len(r.in.graphs), r.in.n
	dests := func(i int) []int { return []int{i % n, (i + n/2) % n} }
	if need("graph.decode", "graph.validate", "graph.fingerprint", "serve.pool_get", "serve.encode", "core.solve") {
		for i := 0; i < probeMin; i++ {
			if _, err := r.solve(i%G, dests(i), r.pools[backendNames[0]], -1, *opID); err != nil {
				return err
			}
			*opID++
		}
	}
	if need("core.sweep", "core.sweep_first_row") {
		for i := 0; i < probeMin; i++ {
			if err := r.allPairs(i%G, -1, *opID); err != nil {
				return err
			}
			*opID++
		}
	}
	if need("core.update", "core.resolve_sweep") {
		for i := 0; i < probeMin; i++ {
			if err := r.update(i%len(r.sess), -1, *opID); err != nil {
				return err
			}
			*opID++
		}
	}
	if need("router.lookup", "router.cache_get") {
		for i := 0; i < probeMin; i++ {
			o := op{graph: i % G, dests: dests(i), key: i}
			if err := r.routed(o, *opID); err != nil {
				return err
			}
			*opID++
		}
	}
	for i := 0; i < probeMin; i++ {
		sp := r.t.begin("core.new_session", -1, *opID)
		s, err := core.NewSession(r.in.graphs[i%G], core.Options{})
		r.t.end(sp)
		if err != nil {
			return err
		}
		s.Close()
		*opID++
	}
	return nil
}

// probeSkipRatio is the share of rows the probe session's re-solves emit
// without running the DP over one full update cycle, for workloads whose
// own stream has no re-solves.
func (r *replayer) probeSkipRatio() (float64, error) {
	rows, zero := 0, 0
	for i := 0; i < len(r.cyc[0].updates); i++ {
		sess, c := r.sess[0], r.cyc[0]
		r.seqs[0]++
		if err := sess.Update(c.updates[c.batch(r.seqs[0])]); err != nil {
			return 0, err
		}
		err := sess.ResolveSweep(r.ctx, r.all, func(res *core.Result) error {
			rows++
			if res.Iterations == 0 {
				zero++
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return ratio(float64(zero), float64(rows)), nil
}

// coreAllocs runs the core calls of k stream operations with nothing
// else (no decode, no encode) and returns heap allocations and kilobytes
// per operation.
func coreAllocs(ctx context.Context, in *inputs, ops []op) (allocs, kb float64, err error) {
	pool := serve.NewPool(4, 1, 0)
	defer pool.Close()
	var sess *core.Session
	var c *cycle
	if in.w.kind == opSession {
		c = in.cycles[0]
		if sess, err = core.NewSession(c.states[0].Clone(), core.Options{}); err != nil {
			return 0, 0, err
		}
		defer sess.Close()
	}
	all := make([]int, in.n)
	for d := range all {
		all[d] = d
	}
	discard := func(*core.Result) error { return nil }
	bits := make([]uint, len(in.graphs))
	for i, g := range in.graphs {
		if bits[i], err = serve.PickBits(g, 0); err != nil {
			return 0, 0, err
		}
	}
	run := func(o op, seq int) error {
		switch in.w.kind {
		case opSession:
			if err := sess.Update(c.updates[c.batch(uint64(seq))]); err != nil {
				return err
			}
			return sess.ResolveSweep(ctx, all, discard)
		}
		s, _, err := pool.Get(in.graphs[o.graph], bits[o.graph])
		if err != nil {
			return err
		}
		defer pool.Put(s)
		if in.w.kind == opAllPairs {
			return s.SolveSweep(ctx, all, discard)
		}
		for _, d := range o.dests {
			if _, err := s.SolveContext(ctx, d); err != nil {
				return err
			}
		}
		return nil
	}
	// One untimed pass warms the pool and the sessions' scratch.
	if err := run(ops[0], 1); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, o := range ops {
		if err := run(o, i+2); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	k := float64(len(ops))
	return float64(after.Mallocs-before.Mallocs) / k, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / k, nil
}

// laneStat is one lane-matrix cell: the median and quartiles of its
// repeated samples in milliseconds.
type laneStat struct {
	Median  float64 `json:"median_ms"`
	Q1      float64 `json:"q1_ms"`
	Q3      float64 `json:"q3_ms"`
	Samples int     `json:"samples"`
}

func newLaneStat(xs []float64) laneStat {
	q1, q3 := quartiles(xs)
	return laneStat{Median: median(xs), Q1: q1, Q3: q3, Samples: len(xs)}
}

// laneDests is the number of destinations (or weight reloads) one
// lane-matrix sample times.
const laneDests = 8

// laneMatrix times a destination solve in each DP lane (the
// machine-program lane, reference kernels, the switch-only bus, block
// virtualization on an 8x8 array, and the sweep lane per destination)
// and a weight reload, at n=16 and n=64. Keys are
// "core.lane.<lane>.n<n>_ms" and "core.reload.n<n>_ms".
//
// Every sample of a cell does the same work, so a cell's spread is
// run-to-run noise: the per-destination mean over a fixed set of
// laneDests destinations (the sweep lane: over the whole table), or the
// mean of laneDests reloads. The cells take turns, one sample each per
// round for about budget and at least probeMin rounds, so a stall of the
// host lands on every cell a little instead of on one cell entirely.
func laneMatrix(ctx context.Context, seed int64, budget time.Duration) (map[string]laneStat, error) {
	type cell struct {
		key string
		per float64
		fn  func() error
		xs  []float64
	}
	var cells []*cell
	var sessions []*core.Session
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	session := func(g *graph.Graph, opt core.Options) (*core.Session, error) {
		s, err := core.NewSession(g, opt)
		if err == nil {
			sessions = append(sessions, s)
		}
		return s, err
	}
	lanes := []struct {
		name string
		opt  core.Options
	}{
		{"program", core.Options{}},
		{"reference", core.Options{ReferenceKernels: true}},
		{"switch-only", core.Options{SwitchOnlyBus: true}},
		{"virt-m8", core.Options{PhysicalSide: 8}},
		{"sweep", core.Options{}},
	}
	for _, n := range []int{16, 64} {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.GenRandomConnected(n, density, maxWeight, rng.Int63())
		g2 := graph.GenRandomConnected(n, density, maxWeight, rng.Int63())
		all := make([]int, n)
		for d := range all {
			all[d] = d
		}
		fixed := make([]int, laneDests)
		for i := range fixed {
			fixed[i] = i * n / laneDests
		}
		for _, l := range lanes {
			s, err := session(g, l.opt)
			if err != nil {
				return nil, err
			}
			c := &cell{key: fmt.Sprintf("core.lane.%s.n%d_ms", l.name, n), per: laneDests, fn: func() error {
				for _, d := range fixed {
					if _, err := s.SolveContext(ctx, d); err != nil {
						return err
					}
				}
				return nil
			}}
			if l.name == "sweep" {
				c.per = float64(n)
				c.fn = func() error {
					return s.SolveSweep(ctx, all, func(*core.Result) error { return nil })
				}
			}
			cells = append(cells, c)
		}
		s, err := session(g, core.Options{})
		if err != nil {
			return nil, err
		}
		cells = append(cells, &cell{key: fmt.Sprintf("core.reload.n%d_ms", n), per: laneDests, fn: func() error {
			for i := 0; i < laneDests; i++ {
				next := g
				if i%2 == 0 {
					next = g2
				}
				if err := s.Reload(next); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	for _, c := range cells { // warm every lane's scratch
		if err := c.fn(); err != nil {
			return nil, err
		}
	}
	// Collect what earlier work left behind, so its garbage is not swept
	// while the cells are timed.
	runtime.GC()
	start := time.Now()
	for round := 0; round < probeMin || time.Since(start) < budget; round++ {
		for _, c := range cells {
			t0 := time.Now()
			if err := c.fn(); err != nil {
				return nil, err
			}
			c.xs = append(c.xs, ms(time.Since(t0))/c.per)
		}
	}
	out := map[string]laneStat{}
	for _, c := range cells {
		out[c.key] = newLaneStat(c.xs)
	}
	return out, nil
}
