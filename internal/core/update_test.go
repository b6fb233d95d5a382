package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ppamcp/internal/graph"
)

// genUpdates builds one randomized batch for an update stream and keeps
// weights small enough for every test width. mode selects the delta
// class: "decrease" (including edge inserts), "increase" (including edge
// removals), or "mixed".
func genUpdates(rng *rand.Rand, g *graph.Graph, mode string, k int) []graph.WeightUpdate {
	n := g.N
	ups := make([]graph.WeightUpdate, 0, k)
	cur := func(u, v int) int64 {
		c := g.At(u, v)
		for i := len(ups) - 1; i >= 0; i-- {
			if ups[i].U == u && ups[i].V == v {
				return ups[i].W
			}
		}
		return c
	}
	for tries := 0; len(ups) < k && tries < 64*k; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		c := cur(u, v)
		var w int64
		switch mode {
		case "decrease":
			if c == graph.NoEdge {
				w = int64(1 + rng.Intn(9))
			} else if c > 0 {
				w = rng.Int63n(c)
			} else {
				continue
			}
		case "increase":
			if c == graph.NoEdge {
				continue
			}
			if c > 40 || rng.Intn(4) == 0 {
				w = graph.NoEdge
			} else {
				w = c + 1 + rng.Int63n(5)
			}
		default:
			if rng.Intn(3) == 0 {
				w = graph.NoEdge
			} else {
				w = rng.Int63n(10)
			}
		}
		ups = append(ups, graph.WeightUpdate{U: u, V: v, W: w})
	}
	return ups
}

// checkResolved compares an incremental Resolve against a from-scratch
// solve of the mirror graph and the Bellman-Ford reference: distances AND
// next pointers must be identical, and the result must self-certify.
func checkResolved(t *testing.T, r *Result, mirror *graph.Graph, dest int, opt Options) *Result {
	t.Helper()
	cold, err := Solve(mirror, dest, opt)
	if err != nil {
		t.Fatalf("from-scratch solve dest %d: %v", dest, err)
	}
	if !reflect.DeepEqual(r.Dist, cold.Dist) {
		t.Fatalf("dest %d: incremental distances diverge from from-scratch\n inc: %v\ncold: %v",
			dest, r.Dist, cold.Dist)
	}
	if !reflect.DeepEqual(r.Next, cold.Next) {
		t.Fatalf("dest %d: incremental next pointers diverge from from-scratch\n inc: %v\ncold: %v",
			dest, r.Next, cold.Next)
	}
	bf, err := graph.BellmanFord(mirror, dest)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SameDistances(&r.Result, bf) {
		t.Fatalf("dest %d: distances diverge from Bellman-Ford", dest)
	}
	if err := graph.CheckResult(mirror, &r.Result); err != nil {
		t.Fatalf("dest %d: %v", dest, err)
	}
	return cold
}

// TestUpdateResolveDifferential replays randomized update streams of each
// delta class on every fabric flavor, on the fused lane and on the machine
// program (the reference configurations), and checks each incremental
// Update+Resolve against a from-scratch solve of an independently
// maintained mirror graph (Graph.Apply — the two update paths must agree
// too).
func TestUpdateResolveDifferential(t *testing.T) {
	const n = 12
	configs := []struct {
		name string
		opt  Options
	}{
		{"direct", Options{Bits: 12}},
		{"reference", Options{Bits: 12, ReferenceKernels: true}},
		{"switch-only", Options{Bits: 12, SwitchOnlyBus: true}},
		{"switch-only-reference", Options{Bits: 12, SwitchOnlyBus: true, ReferenceKernels: true}},
		{"virt-m6", Options{Bits: 12, PhysicalSide: 6}},
		{"virt-m6-reference", Options{Bits: 12, PhysicalSide: 6, ReferenceKernels: true}},
	}
	for _, cfg := range configs {
		for _, mode := range []string{"decrease", "increase", "mixed"} {
			t.Run(cfg.name+"/"+mode, func(t *testing.T) {
				g0 := graph.GenRandomConnected(n, 0.35, 9, 7)
				s, err := NewSession(g0, cfg.opt)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				mirror := g0.Clone()
				rng := rand.New(rand.NewSource(42))
				ctx := context.Background()
				for step := 0; step < 6; step++ {
					batch := genUpdates(rng, mirror, mode, 1+rng.Intn(4))
					if err := s.Update(batch); err != nil {
						t.Fatalf("step %d: Update: %v", step, err)
					}
					if err := mirror.Apply(batch); err != nil {
						t.Fatalf("step %d: Apply: %v", step, err)
					}
					for _, dest := range []int{0, n / 2, n - 1} {
						r, err := s.Resolve(ctx, dest)
						if err != nil {
							t.Fatalf("step %d dest %d: Resolve: %v", step, dest, err)
						}
						checkResolved(t, r, mirror, dest, cfg.opt)
					}
				}
			})
		}
	}
}

// TestResolveColdClassParity pins the cold-class contract: the first
// Resolve of a destination (and the first after Reload) is byte-identical
// to Solve — same Dist, Next, Iterations AND Metrics.
func TestResolveColdClassParity(t *testing.T) {
	g := graph.GenRandomConnected(10, 0.4, 9, 3)
	g2 := graph.GenRandomConnected(10, 0.3, 9, 4)
	for _, opt := range []Options{{Bits: 12}, {Bits: 12, ReferenceKernels: true}} {
		s, err := NewSession(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSession(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for dest := 0; dest < g.N; dest += 3 {
			got, err := s.Resolve(ctx, dest)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Solve(dest)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ref=%v dest %d: cold-class Resolve differs from Solve:\ngot  %+v\nwant %+v",
					opt.ReferenceKernels, dest, got, want)
			}
		}
		// Reload must demote every retained solution back to cold class.
		if err := s.Reload(g2); err != nil {
			t.Fatal(err)
		}
		if err := ref.Reload(g2); err != nil {
			t.Fatal(err)
		}
		got, err := s.Resolve(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Solve(0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-Reload Resolve not cold-class:\ngot  %+v\nwant %+v", got, want)
		}
		s.Close()
		ref.Close()
	}
}

// TestResolveFastGeneralParity pins the warm fast path against the warm
// general (machine-program) path: identical update streams on a fused and
// a reference-kernel session must yield byte-identical Dist, Next,
// Iterations and Metrics for every Resolve (DESIGN §12). The observed
// event stream is pinned by TestSolveSweepEventStreamParity.
func TestResolveFastGeneralParity(t *testing.T) {
	const n = 10
	g0 := graph.GenRandomConnected(n, 0.4, 9, 17)
	h := uint(12)
	fast, err := NewSession(g0, Options{Bits: h})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	gen, err := NewSession(g0, Options{Bits: h, ReferenceKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()

	rng := rand.New(rand.NewSource(5))
	mirror := g0.Clone()
	ctx := context.Background()
	for step := 0; step < 5; step++ {
		batch := genUpdates(rng, mirror, "mixed", 1+rng.Intn(3))
		if err := fast.Update(batch); err != nil {
			t.Fatal(err)
		}
		if err := gen.Update(batch); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Apply(batch); err != nil {
			t.Fatal(err)
		}
		for _, dest := range []int{1, n - 2} {
			rf, err := fast.Resolve(ctx, dest)
			if err != nil {
				t.Fatal(err)
			}
			rg, err := gen.Resolve(ctx, dest)
			if err != nil {
				t.Fatal(err)
			}
			if rf.Iterations != rg.Iterations {
				t.Fatalf("step %d dest %d: iterations %d (fast) vs %d (general)",
					step, dest, rf.Iterations, rg.Iterations)
			}
			if rf.Metrics != rg.Metrics {
				t.Fatalf("step %d dest %d: metrics diverge\nfast:    %+v\ngeneral: %+v",
					step, dest, rf.Metrics, rg.Metrics)
			}
			if !reflect.DeepEqual(rf.Dist, rg.Dist) || !reflect.DeepEqual(rf.Next, rg.Next) {
				t.Fatalf("step %d dest %d: results diverge", step, dest)
			}
		}
	}
}

// TestResolveWarmIterations demonstrates the warm-start win on a graph
// where the cold DP needs many rounds: a 64-chain converges in ~n rounds
// cold, while re-solving after a small local decrease takes a handful.
func TestResolveWarmIterations(t *testing.T) {
	const n = 64
	g := graph.GenChain(n, 3)
	s, err := NewSession(g, Options{Bits: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	dest := n - 1
	cold, err := s.Resolve(ctx, dest)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Iterations < n-2 {
		t.Fatalf("chain cold solve took %d iterations, expected ~%d", cold.Iterations, n)
	}
	if err := s.Update([]graph.WeightUpdate{{U: 1, V: 2, W: 1}}); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Resolve(ctx, dest)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > 4 {
		t.Errorf("warm re-solve took %d iterations, want <= 4 (cold: %d)",
			warm.Iterations, cold.Iterations)
	}
	mirror := g.Clone()
	mirror.W[1*n+2] = 1
	checkResolved(t, warm, mirror, dest, Options{Bits: 16})
}

// TestUpdateAtomicAndOwnership: a rejected batch changes nothing, an
// accepted one never mutates the caller's graph, and the width rule
// matches Reload's.
func TestUpdateAtomicAndOwnership(t *testing.T) {
	g := graph.GenRandomConnected(8, 0.4, 9, 1)
	orig := g.Clone()
	s, err := NewSession(g, Options{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Resolve(ctx, 0); err != nil {
		t.Fatal(err)
	}

	// Out-of-range endpoint after a valid update: atomic reject.
	err = s.Update([]graph.WeightUpdate{{U: 0, V: 1, W: 2}, {U: 0, V: 99, W: 2}})
	if err == nil {
		t.Fatal("expected range error")
	}
	// Width overflow: (n-1)*w must stay below MAXINT(8) = 255.
	err = s.Update([]graph.WeightUpdate{{U: 0, V: 1, W: 40}})
	if err == nil {
		t.Fatal("expected width error")
	}
	r, err := s.Resolve(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResolved(t, r, orig, 0, Options{Bits: 8})

	// An applied update leaves the caller's graph untouched.
	if err := s.Update([]graph.WeightUpdate{{U: 0, V: 1, W: 3}}); err != nil {
		t.Fatal(err)
	}
	for i := range g.W {
		if g.W[i] != orig.W[i] {
			t.Fatalf("caller graph mutated at word %d", i)
		}
	}
	if s.Graph() == g {
		t.Fatal("session should own a clone after Update")
	}
	if got := s.Graph().At(0, 1); got != 3 {
		t.Fatalf("session graph At(0,1) = %d, want 3", got)
	}
}

// TestUpdateResolveSteadyStateAllocs pins the warm loop's allocation
// budget: a k=4 Update plus a warm Resolve allocates only the yielded
// Result (struct + Dist + Next), and a decrease-only Update alone
// allocates nothing.
func TestUpdateResolveSteadyStateAllocs(t *testing.T) {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	s, err := NewSession(g, Options{Bits: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Four existing edges to toggle; toggling up exercises the increase
	// log + subtree invalidation, toggling down the decrease seeding.
	type edge struct{ u, v int }
	var edges []edge
	for i := 0; i < g.N && len(edges) < 4; i++ {
		for j := 0; j < g.N && len(edges) < 4; j++ {
			if i != j && g.HasEdge(i, j) {
				edges = append(edges, edge{i, j})
			}
		}
	}
	ups := make([]graph.WeightUpdate, len(edges))
	tick := 0
	cycle := func() {
		tick++
		for i, e := range edges {
			ups[i] = graph.WeightUpdate{U: e.u, V: e.v, W: int64(2 + (tick+i)%2)}
		}
		if err := s.Update(ups); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Resolve(ctx, 7); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(5, cycle); avg > 4 {
		t.Errorf("warm Update(k=4)+Resolve allocates %.1f/op, want <= 4 (the Result)", avg)
	}

	// Decrease-only Update alone: zero allocations.
	w := int64(40)
	dec := func() {
		w--
		for i, e := range edges {
			ups[i] = graph.WeightUpdate{U: e.u, V: e.v, W: w + int64(i)}
		}
		if err := s.Update(ups); err != nil {
			t.Fatal(err)
		}
	}
	dec() // establish the high weights' first step
	if avg := testing.AllocsPerRun(5, dec); avg > 0 {
		t.Errorf("decrease-only Update allocates %.1f/op, want 0", avg)
	}
}

// TestResolvePaperInitNeverWarm: PaperInit solves are not fixpoints of
// the corrected DP, so Resolve must run the cold path every time (equal
// Metrics on repeat calls, never the warm discount).
func TestResolvePaperInitNeverWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if rng.Float64() < 0.5 {
				w := 1 + rng.Int63n(9)
				g.SetEdge(i, j, w)
				g.SetEdge(j, i, w)
			}
		}
	}
	s, err := NewSession(g, Options{Bits: 10, PaperInit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	r1, err := s.Resolve(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Resolve(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("PaperInit Resolve should repeat the cold solve byte-identically")
	}
}

// fuzzFabric maps one fuzz input byte to the fabric a fuzzed session runs
// on: the direct machine, the switch-only bus, or block-mapped execution
// on a physical side m < n that divides n (n >= 2).
func fuzzFabric(b byte, n int) Options {
	opt := Options{Bits: 12}
	switch b % 3 {
	case 1:
		opt.SwitchOnlyBus = true
	case 2:
		var sides []int
		for m := 1; m < n; m++ {
			if n%m == 0 {
				sides = append(sides, m)
			}
		}
		opt.PhysicalSide = sides[int(b/3)%len(sides)]
	}
	return opt
}

// FuzzUpdateResolve replays an arbitrary byte string as an update stream
// on the fabric byte 3 picks (fuzzFabric): batches of (u, v, w) edits
// followed by a Resolve, each checked against a from-scratch solve of the
// mirror graph by a ReferenceKernels session on the same fabric — with
// the full Metrics/Iterations check on the cold-class calls.
func FuzzUpdateResolve(f *testing.F) {
	f.Add([]byte{5, 3, 40, 0, 0, 1, 2, 3, 2, 1, 4, 5, 0, 2, 11, 1})
	f.Add([]byte{3, 9, 20, 0, 1, 0, 10, 0, 1, 0, 10, 2, 2, 1, 5, 1, 0, 2, 9, 0})
	f.Add([]byte{7, 1, 55, 0, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{5, 4, 30, 1, 1, 0, 1, 11, 2, 3, 0, 1, 4, 5, 2, 6, 1}) // switch-only
	f.Add([]byte{5, 6, 45, 5, 2, 0, 1, 3, 7, 6, 11, 5, 1, 2, 0, 4, 3}) // virt, n=8 on m=2
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		n := 3 + int(data[0]%6)
		seed := int64(data[1])
		density := 0.2 + float64(data[2]%60)/100
		g := graph.GenRandom(n, density, 9, seed)
		opt := fuzzFabric(data[3], n)
		ref := opt
		ref.ReferenceKernels = true
		s, err := NewSession(g, opt)
		if err != nil {
			t.Skip()
		}
		defer s.Close()
		mirror := g.Clone()
		coldSeen := make(map[int]bool)
		ctx := context.Background()
		i := 4
		for i+3 < len(data) {
			k := 1 + int(data[i]%3)
			i++
			var batch []graph.WeightUpdate
			for b := 0; b < k && i+2 < len(data); b++ {
				u := int(data[i]) % n
				v := int(data[i+1]) % n
				var wt int64
				if wb := data[i+2] % 12; wb >= 10 {
					wt = graph.NoEdge
				} else {
					wt = int64(wb)
				}
				i += 3
				batch = append(batch, graph.WeightUpdate{U: u, V: v, W: wt})
			}
			if err := s.Update(batch); err != nil {
				t.Fatalf("Update: %v", err)
			}
			if err := mirror.Apply(batch); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if i >= len(data) {
				break
			}
			dest := int(data[i]) % n
			i++
			r, err := s.Resolve(ctx, dest)
			if err != nil {
				t.Fatalf("Resolve(%d): %v", dest, err)
			}
			cold := checkResolved(t, r, mirror, dest, ref)
			if !coldSeen[dest] {
				// First Resolve per destination is the from-scratch
				// equivalence class: cost accounting must match too.
				if r.Iterations != cold.Iterations {
					t.Fatalf("cold-class dest %d: iterations %d vs %d", dest, r.Iterations, cold.Iterations)
				}
				if r.Metrics != cold.Metrics {
					t.Fatalf("cold-class dest %d: metrics diverge\ninc:  %+v\ncold: %+v",
						dest, r.Metrics, cold.Metrics)
				}
				coldSeen[dest] = true
			}
		}
	})
}

// TestChangeLogPrunedPerCall pins the change log's length after every
// step of update sequences. Resolve and ResolveSweep prune it once per
// call, on success and on error alike; the expected lengths are what
// pruning after every row leaves: the entries newer than the oldest live
// snapshot.
func TestChangeLogPrunedPerCall(t *testing.T) {
	all := []int{0, 1, 2, 3, 4, 5}
	errStop := errors.New("stop")
	type step struct {
		update    []graph.WeightUpdate // applied when non-nil
		resolve   int                  // >= 0: Resolve(resolve)
		sweep     []int                // ResolveSweep over these dests
		stopAfter int                  // > 0: yield fails after this many rows
		log       int                  // change-log length after the step
	}
	up := func(log int, ups ...graph.WeightUpdate) step { return step{update: ups, resolve: -1, log: log} }
	sweep := func(log int, dests ...int) step { return step{sweep: dests, resolve: -1, log: log} }
	resolve := func(log, dest int) step { return step{resolve: dest, log: log} }
	e := func(u, v int, w int64) graph.WeightUpdate { return graph.WeightUpdate{U: u, V: v, W: w} }
	cases := []struct {
		name  string
		steps []step
	}{
		{"full sweeps", []step{
			sweep(0, all...),
			up(2, e(0, 1, 5), e(1, 2, 1)),
			sweep(0, all...),
			up(1, e(4, 5, 7)),
			sweep(0, all...),
		}},
		{"partial sweeps keep entries stale snapshots need", []step{
			sweep(0, all...),
			up(2, e(0, 1, 5), e(1, 2, 1)),
			sweep(2, 0, 1, 2),
			up(3, e(2, 3, 8)),
			sweep(1, 3, 4, 5),
			sweep(0, 0, 1, 2),
		}},
		{"resolve prunes once per call", []step{
			sweep(0, all...),
			up(1, e(3, 4, 1)),
			resolve(1, 0), resolve(1, 1), resolve(1, 2), resolve(1, 3), resolve(1, 4),
			resolve(0, 5),
		}},
		{"failed sweep still prunes", []step{
			sweep(0, all...),
			up(2, e(0, 1, 5), e(1, 2, 1)),
			sweep(2, 0, 1, 2, 3, 4),
			up(3, e(2, 3, 8)),
			{sweep: []int{5, 0, 1, 2, 3, 4}, stopAfter: 1, resolve: -1, log: 1},
			sweep(0, all...),
		}},
		{"no-op and repeated updates", []step{
			sweep(0, all...),
			up(0, e(0, 1, 3)),
			up(2, e(0, 1, 4), e(0, 1, 6)),
			sweep(0, 5, 4, 3, 2, 1, 0),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSession(graph.GenChain(6, 3), Options{Bits: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			for i, st := range c.steps {
				switch {
				case st.update != nil:
					if err := s.Update(st.update); err != nil {
						t.Fatalf("step %d: Update: %v", i, err)
					}
				case st.resolve >= 0:
					if _, err := s.Resolve(ctx, st.resolve); err != nil {
						t.Fatalf("step %d: Resolve: %v", i, err)
					}
				default:
					rows := 0
					err := s.ResolveSweep(ctx, st.sweep, func(*Result) error {
						rows++
						if rows == st.stopAfter {
							return errStop
						}
						return nil
					})
					if st.stopAfter > 0 && err != errStop || st.stopAfter == 0 && err != nil {
						t.Fatalf("step %d: ResolveSweep = %v", i, err)
					}
				}
				if got := len(s.incLog); got != st.log {
					t.Fatalf("step %d: change log holds %d entries, want %d", i, got, st.log)
				}
			}
		})
	}
}
