package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"ppamcp/internal/graph"
	"ppamcp/internal/serve"
)

// opKind is the endpoint one workload operation exercises.
type opKind int

const (
	opSolve    opKind = iota // POST /v1/solve
	opAllPairs               // POST /v1/allpairs, the full NDJSON table
	opSession                // POST /v1/session/{id}/update, then that seq's rows and trailer on the stream
)

// workload is one traffic mix. README.md gives the reason for each; the
// open-phase rates were frozen at about a third of the closed-loop
// throughput the mix reached on a 2-vCPU host, so the open phase measures
// latency below saturation.
type workload struct {
	name     string
	kind     opKind
	graphs   int     // distinct generated graphs (sessions, for opSession)
	destsPer int     // destinations per /v1/solve request
	destSets int     // >0: each graph has this many fixed destination sets (repeat traffic)
	zipfS    float64 // >1: graphs drawn Zipf(s) instead of rotating
	fleet    bool    // pparouter in front of two single-worker ppaserved
	openRate float64 // open-phase operations per second
}

var workloads = []workload{
	{name: "solve-rotate", kind: opSolve, graphs: 8, destsPer: 2, openRate: 150},
	{name: "allpairs-sweep", kind: opAllPairs, graphs: 8, openRate: 18},
	{name: "session-churn", kind: opSession, graphs: 2, openRate: 200},
	{name: "fleet-zipf", kind: opSolve, graphs: 16, destsPer: 2, destSets: 4, zipfS: 1.4, fleet: true, openRate: 400},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// graphN is the vertex count of every workload's graphs. It is a variable
// only so that the tests can run the workloads on small graphs.
var graphN = 64

// Generator parameters shared by every workload: random connected graphs
// of density 0.3 with weights in [1, maxWeight].
const (
	density   = 0.3
	maxWeight = 9
	// updateK is the edge rewrites per session-churn batch; maxCycle the
	// period of each session's update stream (maxCycle/2 batches of fresh
	// weights, then as many restoring the originals), shorter only when
	// the graph has too few edges. How many rows one batch forces to
	// re-solve is heavy-tailed (coefficient of variation about 1), so the
	// cycle is long and its edges stratified (newCycle) to make every
	// run's mix of cheap and expensive batches alike.
	updateK  = 2
	maxCycle = 128
	// fleetCacheEntries bounds pparouter's front cache below fleet-zipf's
	// 64 request identities, so misses keep arriving from the Zipf tail.
	fleetCacheEntries = 32
)

// op is one workload operation, drawn from the seeded stream.
type op struct {
	graph int   // graph index (session index for opSession)
	dests []int // /v1/solve destinations
	key   int   // router cache identity for fleet-zipf: graph*destSets + set
}

// inputs is everything a run sends and checks, derived from -seed before
// any clock starts: the graphs, their inline JSON, Floyd-Warshall
// references, the op stream, and for session-churn each session's
// periodic update stream with a reference per state.
type inputs struct {
	w      workload
	n      int
	graphs []*graph.Graph
	gjson  [][]byte
	ref    [][]int64 // Floyd-Warshall matrix per graph, row-major

	// setupDests are the destinations of each graph's first (set-up)
	// /v1/solve request.
	setupDests [][]int
	destSets   [][][]int // fleet-zipf: per graph, its destination sets
	cycles     []*cycle  // session-churn: one per session

	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int // ops drawn so far
}

// cycle is one session's periodic update stream: update seq q (from 1)
// applies batch (q-1) mod period, and generation seq q must equal the
// reference of state q mod period.
type cycle struct {
	batches [][]byte // marshalled serve.SessionUpdateRequest bodies
	updates [][]graph.WeightUpdate
	states  []*graph.Graph
	ref     [][]int64
}

func (c *cycle) batch(seq uint64) int { return int((seq - 1) % uint64(len(c.updates))) }
func (c *cycle) state(seq uint64) int { return int(seq % uint64(len(c.updates))) }

func newInputs(w workload, n int, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{w: w, n: n}
	for i := 0; i < w.graphs; i++ {
		g := graph.GenRandomConnected(n, density, maxWeight, rng.Int63())
		gj, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		in.graphs = append(in.graphs, g)
		in.gjson = append(in.gjson, gj)
		in.ref = append(in.ref, graph.FloydWarshall(g))
		in.setupDests = append(in.setupDests, drawDests(rng, n, w.destsPer))
		if w.destSets > 0 {
			sets := make([][]int, w.destSets)
			for s := range sets {
				sets[s] = drawDests(rng, n, w.destsPer)
			}
			in.destSets = append(in.destSets, sets)
		}
		if w.kind == opSession {
			c, err := newCycle(g, in.ref[i], rng)
			if err != nil {
				return nil, err
			}
			in.cycles = append(in.cycles, c)
		}
	}
	if w.zipfS > 1 {
		in.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.graphs-1))
	}
	in.rng = rng
	return in, nil
}

// drawDests draws k distinct destinations.
func drawDests(rng *rand.Rand, n, k int) []int {
	if k == 0 {
		return nil
	}
	return rng.Perm(n)[:min(k, n)]
}

// newCycle builds a periodic update stream over g (Floyd-Warshall matrix
// ref): up to maxCycle/2 batches of updateK rewrites of distinct existing
// edges to new weights, then the same batches again restoring the
// original weights, so the graph returns to g every period and every
// state's reference is computed once, here.
//
// The edges are a stratified sample: ranked by how many destinations'
// shortest-path trees they lie on (a property of the graph, not of the
// solver), and taken at evenly spaced ranks, so each run mixes edges
// nobody routes through with edges on many trees in the same proportion.
func newCycle(g *graph.Graph, ref []int64, rng *rand.Rand) (*cycle, error) {
	n := g.N
	type edge struct{ u, v, trees int }
	var edges []edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || !g.HasEdge(u, v) {
				continue
			}
			e := edge{u: u, v: v}
			for d := 0; d < n; d++ {
				if ref[v*n+d] != graph.NoEdge && g.At(u, v)+ref[v*n+d] == ref[u*n+d] {
					e.trees++
				}
			}
			edges = append(edges, e)
		}
	}
	half := min(maxCycle/2, len(edges)/updateK)
	if half == 0 {
		return nil, fmt.Errorf("graph has %d edges, an update batch needs %d", len(edges), updateK)
	}
	need := half * updateK
	rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
	slices.SortStableFunc(edges, func(a, b edge) int { return a.trees - b.trees })
	picked := make([]edge, need)
	for i := range picked {
		picked[i] = edges[(2*i+1)*len(edges)/(2*need)]
	}
	rng.Shuffle(need, func(a, b int) { picked[a], picked[b] = picked[b], picked[a] })
	c := &cycle{}
	fwd := make([][]graph.WeightUpdate, half)
	back := make([][]graph.WeightUpdate, half)
	for b := 0; b < half; b++ {
		for e := 0; e < updateK; e++ {
			uv := [2]int{picked[b*updateK+e].u, picked[b*updateK+e].v}
			old := g.At(uv[0], uv[1])
			nw := 1 + rng.Int63n(maxWeight-1)
			if nw >= old {
				nw++ // uniform over [1, maxWeight] minus the old weight
			}
			fwd[b] = append(fwd[b], graph.WeightUpdate{U: uv[0], V: uv[1], W: nw})
			back[b] = append(back[b], graph.WeightUpdate{U: uv[0], V: uv[1], W: old})
		}
	}
	c.updates = append(fwd, back...)
	cur := g.Clone()
	c.states = append(c.states, g)
	c.ref = append(c.ref, ref)
	for i, ups := range c.updates {
		wire := make([]serve.WireUpdate, len(ups))
		for k, u := range ups {
			wire[k] = serve.WireUpdate{U: u.U, V: u.V, W: u.W}
		}
		body, err := json.Marshal(serve.SessionUpdateRequest{Updates: wire})
		if err != nil {
			return nil, err
		}
		c.batches = append(c.batches, body)
		if err := cur.Apply(ups); err != nil {
			return nil, err
		}
		if i < len(c.updates)-1 {
			c.states = append(c.states, cur.Clone())
			c.ref = append(c.ref, graph.FloydWarshall(cur))
		}
	}
	if !slices.Equal(cur.W, g.W) {
		return nil, fmt.Errorf("update cycle does not return to its start graph")
	}
	return c, nil
}

// next draws the next operation of the stream. Not safe for concurrent
// use; callers draw under their own lock or before the clock starts.
func (in *inputs) next() op {
	i := in.seq
	in.seq++
	switch {
	case in.w.kind == opSession:
		return op{graph: i % in.w.graphs}
	case in.zipf != nil:
		g := int(in.zipf.Uint64())
		s := in.rng.Intn(in.w.destSets)
		return op{graph: g, dests: in.destSets[g][s], key: g*in.w.destSets + s}
	default:
		return op{graph: i % in.w.graphs, dests: drawDests(in.rng, in.n, in.w.destsPer)}
	}
}

// solveBody is the /v1/solve request for graph g and dests, with the
// graph inline: servers only ever see generated graphs, never generator
// specs, so graph construction is never billed to them.
func (in *inputs) solveBody(buf []byte, g int, dests []int) []byte {
	buf = append(buf[:0], `{"graph":`...)
	buf = append(buf, in.gjson[g]...)
	buf = append(buf, `,"dests":[`...)
	for i, d := range dests {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(d), 10)
	}
	return append(buf, "]}"...)
}

func (in *inputs) allPairsBody(g int) []byte {
	return append(append([]byte(`{"graph":`), in.gjson[g]...), '}')
}

func (in *inputs) sessionBody(g int) []byte {
	return append(append([]byte(`{"graph":`), in.gjson[g]...), `,"dests":"all"}`...)
}

// verifier checks responses against the references. Every distinct row
// is decoded and certified once per graph state and destination; a
// byte-identical repeat of a certified row is accepted by comparison
// (solves are deterministic and the session stream is periodic, so most
// rows repeat). Not safe for concurrent use: it runs after a phase,
// outside the timed window.
type verifier struct {
	in   *inputs
	seen map[[2]int][][]byte // (state id, dest) -> certified row JSON
}

func newVerifier(in *inputs) *verifier {
	return &verifier{in: in, seen: make(map[[2]int][][]byte)}
}

// checkRow verifies one destination row, given as its DestResult JSON,
// for graph g (reference ref, state id sid): distances equal to
// Floyd-Warshall's, next pointers certified by graph.CheckResult.
func (v *verifier) checkRow(sid int, g *graph.Graph, ref []int64, want int, raw []byte) error {
	key := [2]int{sid, want}
	for _, ok := range v.seen[key] {
		if bytes.Equal(ok, raw) {
			return nil
		}
	}
	var dr serve.DestResult
	if err := json.Unmarshal(raw, &dr); err != nil {
		return fmt.Errorf("dest %d: decode row: %v", want, err)
	}
	n := g.N
	if dr.Dest != want {
		return fmt.Errorf("row for dest %d, want %d", dr.Dest, want)
	}
	if len(dr.Dist) != n || len(dr.Next) != n {
		return fmt.Errorf("dest %d: row has %d dists and %d next pointers for n=%d", want, len(dr.Dist), len(dr.Next), n)
	}
	res := graph.Result{Dest: want, Dist: make([]int64, n), Next: dr.Next}
	for i, d := range dr.Dist {
		if d < 0 {
			res.Dist[i] = graph.NoEdge
		} else {
			res.Dist[i] = d
		}
		if res.Dist[i] != ref[i*n+want] {
			return fmt.Errorf("dest %d: dist[%d] = %d, reference %d", want, i, d, ref[i*n+want])
		}
	}
	if err := graph.CheckResult(g, &res); err != nil {
		return fmt.Errorf("dest %d: %v", want, err)
	}
	v.seen[key] = append(v.seen[key], bytes.Clone(raw))
	return nil
}

// checkSolve verifies a /v1/solve 200 body for graph gi and dests.
func (v *verifier) checkSolve(body []byte, gi int, dests []int) error {
	var sr struct {
		N       int               `json:"n"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("decode solve response: %v", err)
	}
	if sr.N != v.in.n || len(sr.Results) != len(dests) {
		return fmt.Errorf("solve response n=%d with %d results, want n=%d with %d", sr.N, len(sr.Results), v.in.n, len(dests))
	}
	for k, raw := range sr.Results {
		if err := v.checkRow(gi, v.in.graphs[gi], v.in.ref[gi], dests[k], raw); err != nil {
			return err
		}
	}
	return nil
}

// checkTable verifies a complete /v1/allpairs NDJSON stream for graph gi:
// header, n rows in ascending destination order, done trailer.
func (v *verifier) checkTable(body []byte, gi int) error {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	n := v.in.n
	if len(lines) != n+2 {
		return fmt.Errorf("allpairs stream has %d lines, want %d", len(lines), n+2)
	}
	var hdr serve.AllPairsHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.N != n {
		return fmt.Errorf("allpairs header %q: %v", lines[0], err)
	}
	for d := 0; d < n; d++ {
		if err := v.checkRow(gi, v.in.graphs[gi], v.in.ref[gi], d, lines[1+d]); err != nil {
			return err
		}
	}
	var tr serve.AllPairsTrailer
	if err := json.Unmarshal(lines[n+1], &tr); err != nil || !tr.Done || tr.Rows != n {
		return fmt.Errorf("allpairs trailer %q: %v", lines[n+1], err)
	}
	return nil
}

// checkGeneration verifies one session generation (seq's n rows and its
// trailer, one line each) against session si's state for that seq.
func (v *verifier) checkGeneration(lines [][]byte, si int, seq uint64) error {
	n := v.in.n
	c := v.in.cycles[si]
	t := c.state(seq)
	sid := 1<<20 + si*maxCycle + t // distinct from plain graph ids
	if len(lines) != n+1 {
		return fmt.Errorf("seq %d: %d lines, want %d rows and a trailer", seq, len(lines), n)
	}
	prefix := fmt.Appendf(nil, `{"seq":%d,`, seq)
	for d := 0; d < n; d++ {
		// A session row is {"seq":N,<DestResult fields>}; with the seq
		// checked, the rest re-opened as an object is the row itself.
		line := bytes.TrimSpace(lines[d])
		if !bytes.HasPrefix(line, prefix) {
			return fmt.Errorf("seq %d row %d: line %.40q does not start with %s", seq, d, line, prefix)
		}
		row := line[len(prefix)-1:]
		row[0] = '{'
		if err := v.checkRow(sid, c.states[t], c.ref[t], d, row); err != nil {
			return fmt.Errorf("seq %d: %v", seq, err)
		}
	}
	var tr serve.SessionTrailer
	if err := json.Unmarshal(lines[n], &tr); err != nil || tr.Seq != seq || tr.Rows != n {
		return fmt.Errorf("seq %d trailer %q: %v", seq, lines[n], err)
	}
	return nil
}
