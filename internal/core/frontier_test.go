package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ppamcp/internal/graph"
)

// TestSolveSweepCancelFromYield: a fused-lane sweep whose context is
// cancelled from its yield callback stops at the next destination's first
// round with context.Canceled, and leaves the session's scratch (frontier,
// BFS queue, adjacency) fit for the next Solve, which equals a fresh
// session's.
func TestSolveSweepCancelFromYield(t *testing.T) {
	g := graph.GenRandomConnected(24, 0.3, 9, 8)
	s, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.fusedMachine() == nil {
		t.Fatal("default session does not take the fused lane")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	err = s.SolveSweep(ctx, []int{0, 1, 2, 3}, func(*Result) error {
		rows++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveSweep cancelled from yield: err = %v, want context.Canceled", err)
	}
	if rows != 1 {
		t.Fatalf("sweep yielded %d rows after cancellation, want 1", rows)
	}
	fresh, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, d := range []int{1, 0, 23} {
		got, err := s.Solve(d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solve(d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dest %d after cancelled sweep:\n got %+v\nwant %+v", d, got, want)
		}
	}
}

// TestAdjacencyFreshness drives one fused-lane session through Reloads
// and Update batches of every shape the in-edge adjacency must follow —
// insertions, deletions, in-place reweights, self-loops, a repeated edge,
// no-op batches and a batch that overflows the change log — and after
// every step checks
// Solve, SolveSweep, ResolveSweep and Resolve row by row: cold rows in
// every field against a fresh ReferenceKernels session on the current
// graph, warm rows in every field against a ReferenceKernels session fed
// the same steps (and in Dist and Next against the fresh one). A stale
// adjacency solves the old weights and fails the first comparison.
func TestAdjacencyFreshness(t *testing.T) {
	const n = 12
	ctx := context.Background()
	g1 := graph.GenRandomConnected(n, 0.3, 9, 21)
	g2 := graph.GenRandomConnected(n, 0.3, 9, 22)
	opt := Options{Bits: 12}
	refOpt := Options{Bits: 12, ReferenceKernels: true}
	s, err := NewSession(g1, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mirror, err := NewSession(g1, refOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	dests := make([]int, n)
	for d := range dests {
		dests[d] = d
	}

	// Edge pickers read the session's current graph when a step runs.
	edge := func(present bool) (int, int) {
		cur := s.Graph()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && cur.HasEdge(u, v) == present {
					return u, v
				}
			}
		}
		t.Fatalf("no edge with present=%v", present)
		return 0, 0
	}
	update := func(mk func() []graph.WeightUpdate) func() error {
		return func() error {
			ups := mk()
			if err := s.Update(ups); err != nil {
				return err
			}
			return mirror.Update(ups)
		}
	}
	reload := func(g *graph.Graph) func() error {
		return func() error {
			if err := s.Reload(g); err != nil {
				return err
			}
			return mirror.Reload(g)
		}
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"initial", func() error { return nil }},
		{"insert", update(func() []graph.WeightUpdate {
			u, v := edge(false)
			return []graph.WeightUpdate{{U: u, V: v, W: 1}}
		})},
		{"delete", update(func() []graph.WeightUpdate {
			u, v := edge(true)
			return []graph.WeightUpdate{{U: u, V: v, W: graph.NoEdge}}
		})},
		{"reweight", update(func() []graph.WeightUpdate {
			u, v := edge(true)
			cur := s.Graph()
			var ups []graph.WeightUpdate
			for x := 0; x < n && len(ups) < 3; x++ {
				if x != v && cur.HasEdge(x, v) {
					ups = append(ups, graph.WeightUpdate{U: x, V: v, W: cur.At(x, v)%9 + 1})
				}
			}
			return append(ups, graph.WeightUpdate{U: u, V: v, W: 9}, graph.WeightUpdate{U: u, V: v, W: 2})
		})},
		{"reload g2", reload(g2)},
		{"self-loop", update(func() []graph.WeightUpdate {
			return []graph.WeightUpdate{{U: 3, V: 3, W: 5}}
		})},
		{"self-loop and insert", update(func() []graph.WeightUpdate {
			u, v := edge(false)
			return []graph.WeightUpdate{{U: 4, V: 4, W: 2}, {U: u, V: v, W: 2}}
		})},
		{"repeated edge", update(func() []graph.WeightUpdate {
			u, v := edge(true)
			return []graph.WeightUpdate{{U: u, V: v, W: 7}, {U: u, V: v, W: graph.NoEdge}, {U: u, V: v, W: 1}}
		})},
		{"empty batch", update(func() []graph.WeightUpdate { return nil })},
		{"rewrite current weights", update(func() []graph.WeightUpdate {
			u, v := edge(true)
			w, x := edge(false)
			return []graph.WeightUpdate{{U: u, V: v, W: s.Graph().At(u, v)}, {U: w, V: x, W: graph.NoEdge}}
		})},
		{"log overflow", func() error {
			u, v := edge(false)
			ups := make([]graph.WeightUpdate, 0, s.maxIncLog()+2)
			for i := 0; i < cap(ups); i++ {
				ups = append(ups, graph.WeightUpdate{U: u, V: v, W: int64(1 + i%2)})
			}
			ups = append(ups, graph.WeightUpdate{U: v, V: u, W: graph.NoEdge})
			if err := update(func() []graph.WeightUpdate { return ups })(); err != nil {
				return err
			}
			if len(s.incLog) != 0 {
				t.Fatalf("a %d-update batch left %d log entries: the log did not overflow", len(ups), len(s.incLog))
			}
			return nil
		}},
		{"reload g1", reload(g1)},
		{"delete after reload", update(func() []graph.WeightUpdate {
			u, v := edge(true)
			return []graph.WeightUpdate{{U: u, V: v, W: graph.NoEdge}}
		})},
	}

	same := func(step, call string, got, want *Result, allFields bool) {
		t.Helper()
		if allFields && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s dest %d diverges:\n got %+v\nwant %+v", step, call, want.Dest, got, want)
		}
		if !reflect.DeepEqual(got.Dist, want.Dist) || !reflect.DeepEqual(got.Next, want.Next) {
			t.Fatalf("%s: %s dest %d diverges from a fresh solve:\n got %v %v\nwant %v %v",
				step, call, want.Dest, got.Dist, got.Next, want.Dist, want.Next)
		}
	}
	collect := func(sweep func(context.Context, []int, func(*Result) error) error) []*Result {
		t.Helper()
		var rows []*Result
		if err := sweep(ctx, dests, func(r *Result) error {
			rows = append(rows, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}

	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		fresh, err := NewSession(s.Graph().Clone(), refOpt)
		if err != nil {
			t.Fatal(err)
		}
		cold := make([]*Result, n)
		for _, d := range dests {
			if cold[d], err = fresh.Solve(d); err != nil {
				t.Fatal(err)
			}
			got, err := s.Solve(d)
			if err != nil {
				t.Fatal(err)
			}
			same(st.name, "Solve", got, cold[d], true)
		}
		fresh.Close()
		for d, got := range collect(s.SolveSweep) {
			same(st.name, "SolveSweep", got, cold[d], true)
		}
		want := collect(mirror.ResolveSweep)
		for d, got := range collect(s.ResolveSweep) {
			same(st.name, "ResolveSweep", got, want[d], true)
			same(st.name, "ResolveSweep", got, cold[d], false)
		}
		for _, d := range dests {
			got, err := s.Resolve(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mirror.Resolve(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			same(st.name, "Resolve", got, want, true)
			same(st.name, "Resolve", got, cold[d], false)
		}
	}
}

// TestFrontierLaneAllocs pins the fused lane's storage reuse: once a
// session has seen its largest edge count, steady-state Reload+Solve and
// Update+Resolve allocate only the Result (the struct, Dist and Next) —
// adjacency rebuilds, frontiers and the BFS queue reuse scratch storage.
func TestFrontierLaneAllocs(t *testing.T) {
	const n = 64
	const want = 3
	ctx := context.Background()
	g1 := graph.GenRandomConnected(n, 0.3, 9, 5)
	g2 := graph.GenRandomConnected(n, 0.3, 9, 6)
	s, err := NewSession(g1, Options{Bits: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gs := [2]*graph.Graph{g1, g2}
	i := 0
	reloadSolve := func() {
		i++
		if err := s.Reload(gs[i%2]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(1); err != nil {
			t.Fatal(err)
		}
	}
	reloadSolve()
	reloadSolve()
	if avg := testing.AllocsPerRun(5, reloadSolve); avg > want {
		t.Errorf("steady-state Reload+Solve allocates %.1f/op, want <= %d (the Result)", avg, want)
	}

	// Rewrite three edges and delete/re-insert a fourth, so the edge count
	// moves as well as the weights.
	var edges [][2]int
	for u := 0; u < n && len(edges) < 4; u++ {
		for v := 0; v < n && len(edges) < 4; v++ {
			if u != v && s.Graph().HasEdge(u, v) {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	ups := make([]graph.WeightUpdate, len(edges))
	tick := 0
	updateResolve := func() {
		tick++
		for k, e := range edges {
			ups[k] = graph.WeightUpdate{U: e[0], V: e[1], W: int64(2 + (tick+k)%2)}
		}
		if tick%2 == 0 {
			ups[3].W = graph.NoEdge
		}
		if err := s.Update(ups); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Resolve(ctx, 7); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3; k++ {
		updateResolve()
	}
	if avg := testing.AllocsPerRun(5, updateResolve); avg > want {
		t.Errorf("steady-state Update+Resolve allocates %.1f/op, want <= %d (the Result)", avg, want)
	}
}
