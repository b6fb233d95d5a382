package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// resolveSweepAll collects ResolveSweep results for every destination.
func resolveSweepAll(t *testing.T, s *Session) []*Result {
	t.Helper()
	n := s.N()
	dests := make([]int, n)
	for d := range dests {
		dests[d] = d
	}
	out := make([]*Result, 0, n)
	err := s.ResolveSweep(context.Background(), dests, func(r *Result) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("ResolveSweep: %v", err)
	}
	return out
}

// TestSweepDestValidation pins the typed destination validation both sweep
// entry points share: out-of-range and duplicate destinations are rejected
// with a *DestError before any solve runs or any row is yielded.
func TestSweepDestValidation(t *testing.T) {
	g := graph.GenRandomConnected(8, 0.4, 9, 21)
	s, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sweeps := map[string]func([]int, func(*Result) error) error{
		"SolveSweep": func(d []int, y func(*Result) error) error {
			return s.SolveSweep(context.Background(), d, y)
		},
		"ResolveSweep": func(d []int, y func(*Result) error) error {
			return s.ResolveSweep(context.Background(), d, y)
		},
	}
	cases := []struct {
		name  string
		dests []int
		want  DestError
	}{
		{"negative", []int{0, -1}, DestError{Dest: -1, Index: 1, N: 8}},
		{"too-large", []int{3, 8}, DestError{Dest: 8, Index: 1, N: 8}},
		{"duplicate", []int{0, 5, 3, 5}, DestError{Dest: 5, Index: 3, N: 8, Dup: true}},
		{"adjacent-dup", []int{2, 2}, DestError{Dest: 2, Index: 1, N: 8, Dup: true}},
	}
	for sname, sweep := range sweeps {
		for _, tc := range cases {
			yields := 0
			err := sweep(tc.dests, func(*Result) error { yields++; return nil })
			var de *DestError
			if !errors.As(err, &de) {
				t.Fatalf("%s/%s: got %v, want *DestError", sname, tc.name, err)
			}
			if *de != tc.want {
				t.Errorf("%s/%s: got %+v, want %+v", sname, tc.name, *de, tc.want)
			}
			if yields != 0 {
				t.Errorf("%s/%s: %d rows yielded before validation error", sname, tc.name, yields)
			}
			if tc.want.Dup == strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s/%s: error text %q does not match its kind", sname, tc.name, err)
			}
		}
		// The session survives rejected sweeps.
		if _, err := s.Solve(1); err != nil {
			t.Fatalf("%s: session unusable after validation errors: %v", sname, err)
		}
	}
}

// TestResolveSweepColdParity pins the cold-class contract: on a session
// with no retained state — first sweep, and first sweep after Reload —
// ResolveSweep is byte-identical to SolveSweep for every destination:
// Dist, Next, Iterations, Bits AND Metrics.
func TestResolveSweepColdParity(t *testing.T) {
	g1 := graph.GenRandomConnected(12, 0.4, 9, 22)
	g2 := graph.GenRandomConnected(12, 0.3, 9, 23)
	options := map[string]Options{
		"default":     {},
		"reference":   {ReferenceKernels: true},
		"switch-only": {SwitchOnlyBus: true},
		"virtualized": {PhysicalSide: 6},
		"paper-init":  {PaperInit: true},
	}
	for oname, opt := range options {
		rs, err := NewSession(g1, opt)
		if err != nil {
			t.Fatalf("%s: %v", oname, err)
		}
		ss, err := NewSession(g1, opt)
		if err != nil {
			t.Fatalf("%s: %v", oname, err)
		}
		check := func(phase string) {
			got := resolveSweepAll(t, rs)
			want := sweepAll(t, ss)
			for d := range want {
				if !reflect.DeepEqual(got[d], want[d]) {
					t.Errorf("%s/%s dest %d: cold ResolveSweep differs from SolveSweep:\ngot  %+v\nwant %+v",
						oname, phase, d, got[d], want[d])
				}
			}
		}
		check("fresh")
		if err := rs.Reload(g2); err != nil {
			t.Fatal(err)
		}
		if err := ss.Reload(g2); err != nil {
			t.Fatal(err)
		}
		check("post-reload")
		rs.Close()
		ss.Close()
	}
}

// TestResolveSweepDifferential is the warm differential suite: randomized
// update streams of every delta class (including edge deletions, W =
// NoEdge) on every fabric flavor, each generation's ResolveSweep checked
// destination by destination against a from-scratch solve of the mirror
// graph and the Bellman-Ford reference.
func TestResolveSweepDifferential(t *testing.T) {
	const n = 12
	configs := []struct {
		name string
		opt  Options
	}{
		{"direct", Options{Bits: 12}},
		{"reference", Options{Bits: 12, ReferenceKernels: true}},
		{"switch-only", Options{Bits: 12, SwitchOnlyBus: true}},
		{"virt-m6", Options{Bits: 12, PhysicalSide: 6}},
	}
	dests := make([]int, n)
	for d := range dests {
		dests[d] = d
	}
	for _, cfg := range configs {
		for _, mode := range []string{"decrease", "increase", "mixed"} {
			t.Run(cfg.name+"/"+mode, func(t *testing.T) {
				g0 := graph.GenRandomConnected(n, 0.35, 9, 8)
				s, err := NewSession(g0, cfg.opt)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				mirror := g0.Clone()
				rng := rand.New(rand.NewSource(43))
				ctx := context.Background()
				for step := 0; step < 5; step++ {
					batch := genUpdates(rng, mirror, mode, 1+rng.Intn(4))
					if err := s.Update(batch); err != nil {
						t.Fatalf("step %d: Update: %v", step, err)
					}
					if err := mirror.Apply(batch); err != nil {
						t.Fatalf("step %d: Apply: %v", step, err)
					}
					rows := 0
					err := s.ResolveSweep(ctx, dests, func(r *Result) error {
						if r.Dest != dests[rows] {
							t.Fatalf("step %d: row %d has dest %d", step, rows, r.Dest)
						}
						rows++
						checkResolved(t, r, mirror, r.Dest, cfg.opt)
						return nil
					})
					if err != nil {
						t.Fatalf("step %d: ResolveSweep: %v", step, err)
					}
					if rows != n {
						t.Fatalf("step %d: %d rows, want %d", step, rows, n)
					}
				}
			})
		}
	}
}

// TestResolveSweepFastGeneralParity pins the two warm execution lanes
// against each other across whole sweeps: identical update streams on a
// fused and a reference-kernel session must yield byte-identical Dist,
// Next, Iterations and Metrics for every row — including the skipped
// ones, which charge nothing in either lane.
func TestResolveSweepFastGeneralParity(t *testing.T) {
	const n = 10
	g0 := graph.GenRandomConnected(n, 0.4, 9, 19)
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

	rng := rand.New(rand.NewSource(6))
	mirror := g0.Clone()
	ctx := context.Background()
	dests := make([]int, n)
	for d := range dests {
		dests[d] = d
	}
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
		var rf, rg []*Result
		if err := fast.ResolveSweep(ctx, dests, func(r *Result) error { rf = append(rf, r); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := gen.ResolveSweep(ctx, dests, func(r *Result) error { rg = append(rg, r); return nil }); err != nil {
			t.Fatal(err)
		}
		for d := range dests {
			if rf[d].Iterations != rg[d].Iterations {
				t.Fatalf("step %d dest %d: iterations %d (fast) vs %d (general)",
					step, d, rf[d].Iterations, rg[d].Iterations)
			}
			if rf[d].Metrics != rg[d].Metrics {
				t.Fatalf("step %d dest %d: metrics diverge\nfast:    %+v\ngeneral: %+v",
					step, d, rf[d].Metrics, rg[d].Metrics)
			}
			if !reflect.DeepEqual(rf[d].Dist, rg[d].Dist) || !reflect.DeepEqual(rf[d].Next, rg[d].Next) {
				t.Fatalf("step %d dest %d: results diverge", step, d)
			}
		}
	}
}

// TestResolveSweepSkipConverged pins the skip-converged fast-out. On a
// forward chain a local edit can only reach the destinations downstream of
// it: upstream destinations must be emitted straight from the retained
// rows (zero Iterations, zero Metrics), downstream ones must re-run the
// DP — and an update-free sweep must skip every destination.
func TestResolveSweepSkipConverged(t *testing.T) {
	const n = 16
	g := graph.GenChain(n, 3)
	s, err := NewSession(g, Options{Bits: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resolveSweepAll(t, s) // cold sweep retains every destination

	// No updates: every row of the second sweep is a skip.
	for d, r := range resolveSweepAll(t, s) {
		if r.Iterations != 0 || r.Metrics != (ppa.Metrics{}) {
			t.Fatalf("update-free sweep dest %d: Iterations=%d Metrics=%+v, want zero",
				d, r.Iterations, r.Metrics)
		}
	}

	// Edge (7, 8) feeds only destinations >= 8; vertices 0..7 reach them
	// through it, so those rows must re-solve while destinations <= 7
	// (whose solutions never see the edge) skip.
	if err := s.Update([]graph.WeightUpdate{{U: 7, V: 8, W: 9}}); err != nil {
		t.Fatal(err)
	}
	mirror := g.Clone()
	mirror.W[7*n+8] = 9
	for d, r := range resolveSweepAll(t, s) {
		skipped := r.Iterations == 0
		if skipped != (d <= 7) {
			t.Errorf("dest %d: skipped=%v, want %v", d, skipped, d <= 7)
		}
		if skipped && r.Metrics != (ppa.Metrics{}) {
			t.Errorf("dest %d: skipped row charged metrics %+v", d, r.Metrics)
		}
		checkResolved(t, r, mirror, d, Options{Bits: 12})
	}
}

// TestResolveSweepNeverWarm: faulty fabrics and PaperInit sessions never
// retain or warm-start — every ResolveSweep repeats the cold sweep
// byte-identically, Metrics included.
func TestResolveSweepNeverWarm(t *testing.T) {
	g := graph.GenRandomConnected(8, 0.4, 9, 24)
	h := g.BitsNeeded()

	m := ppa.New(g.N, h)
	m.InjectFault(13, ppa.StuckShort)
	faulty, err := NewSessionOn(m, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	paper, err := NewSession(g, Options{PaperInit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer paper.Close()

	for name, s := range map[string]*Session{"faulty": faulty, "paper-init": paper} {
		first := resolveSweepAll(t, s)
		second := resolveSweepAll(t, s)
		for d := range first {
			if !reflect.DeepEqual(first[d], second[d]) {
				t.Errorf("%s dest %d: repeat ResolveSweep not byte-identical to the first (should stay cold)", name, d)
			}
			if second[d].Iterations == 0 {
				t.Errorf("%s dest %d: skip fired on a non-retaining session", name, d)
			}
		}
	}
}

// TestResolveSweepSteadyStateAllocs pins the incremental sweep's
// allocation contract: once warm, Update(k) plus a full n-destination
// ResolveSweep allocates only the yielded Results (struct + Dist + Next
// per destination).
func TestResolveSweepSteadyStateAllocs(t *testing.T) {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	s, err := NewSession(g, Options{Bits: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	n := g.N
	dests := make([]int, n)
	for d := range dests {
		dests[d] = d
	}
	type edge struct{ u, v int }
	var edges []edge
	for i := 0; i < n && len(edges) < 4; i++ {
		for j := 0; j < n && len(edges) < 4; j++ {
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
		if err := s.ResolveSweep(ctx, dests, func(*Result) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(5, cycle)
	perDest := allocs / float64(n)
	const maxPerDest = 4
	if perDest > maxPerDest {
		t.Errorf("warm Update(k=4)+ResolveSweep allocates %.2f objects/destination (%.0f total), want <= %d",
			perDest, allocs, maxPerDest)
	}
}

// FuzzResolveSweep replays an arbitrary byte string as an update stream on
// a live session, each batch followed by a ResolveSweep over a
// mask-selected destination subset — every row checked against a
// from-scratch solve of the mirror graph and the Bellman-Ford reference.
func FuzzResolveSweep(f *testing.F) {
	f.Add([]byte{5, 3, 40, 0xff, 1, 0, 1, 2, 3, 2, 1, 4, 0x0b})
	f.Add([]byte{3, 9, 20, 0x05, 2, 0, 1, 0, 1, 2, 11, 0xff, 1, 1, 0, 10, 0x03})
	f.Add([]byte{7, 1, 55, 0x81, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		n := 3 + int(data[0]%6)
		seed := int64(data[1])
		density := 0.2 + float64(data[2]%60)/100
		g := graph.GenRandom(n, density, 9, seed)
		opt := Options{Bits: 12}
		s, err := NewSession(g, opt)
		if err != nil {
			t.Skip()
		}
		defer s.Close()
		mirror := g.Clone()
		ctx := context.Background()
		i := 3
		for i+4 < len(data) {
			mask := data[i]
			k := 1 + int(data[i+1]%3)
			i += 2
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
			// The mask byte selects a distinct destination subset (n <= 8).
			var dests []int
			for d := 0; d < n; d++ {
				if mask&(1<<uint(d)) != 0 {
					dests = append(dests, d)
				}
			}
			if len(dests) == 0 {
				dests = []int{int(mask) % n}
			}
			rows := 0
			err := s.ResolveSweep(ctx, dests, func(r *Result) error {
				if r.Dest != dests[rows] {
					t.Fatalf("row %d: dest %d, want %d", rows, r.Dest, dests[rows])
				}
				rows++
				checkResolved(t, r, mirror, r.Dest, opt)
				return nil
			})
			if err != nil {
				t.Fatalf("ResolveSweep: %v", err)
			}
			if rows != len(dests) {
				t.Fatalf("%d rows, want %d", rows, len(dests))
			}
		}
	})
}
