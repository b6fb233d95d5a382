package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// sweepAll collects SolveSweep results for every destination of s's graph.
func sweepAll(t *testing.T, s *Session) []*Result {
	t.Helper()
	n := s.N()
	dests := make([]int, n)
	for d := range dests {
		dests[d] = d
	}
	out := make([]*Result, 0, n)
	err := s.SolveSweep(context.Background(), dests, func(r *Result) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("SolveSweep: %v", err)
	}
	return out
}

// TestSolveSweepParity pins the sweep contract: for every destination,
// SolveSweep yields Dist, Next, Iterations, Bits *and every cycle counter*
// byte-identical to a sequential Session.Solve loop on the machine
// program (ReferenceKernels) — across graph
// families, word widths, worker counts, both bus models, both kernel
// strategies, the paper's verbatim init and block-mapped (virtualized)
// fabrics. This is the same parity discipline the fused kernels and the
// packed virtualization engine shipped under.
func TestSolveSweepParity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random-9":    graph.GenRandomConnected(9, 0.4, 30, 1),
		"random-16":   graph.GenRandomConnected(16, 0.3, 100, 2),
		"chain-12":    graph.GenChain(12, 3),
		"complete-10": graph.GenComplete(10, 50, 3),
		"sparse-20":   graph.GenRandom(20, 0.08, 25, 4), // may be disconnected
	}
	options := map[string]Options{
		"default":      {},
		"workers":      {Workers: 4},
		"wide-words":   {Bits: 24},
		"paper-init":   {PaperInit: true},
		"switch-only":  {SwitchOnlyBus: true},
		"reference":    {ReferenceKernels: true},
		"virtualized":  {PhysicalSide: 4},
		"virt-workers": {PhysicalSide: 2, Workers: 3},
	}
	for gname, g := range graphs {
		for oname, opt := range options {
			if opt.PhysicalSide > 0 && g.N%opt.PhysicalSide != 0 {
				continue
			}
			sw, err := NewSession(g, opt)
			if err != nil {
				t.Fatalf("%s/%s: sweep session: %v", gname, oname, err)
			}
			// The sequential oracle runs the machine program: default
			// sessions would otherwise compare the fused lane with itself.
			seqOpt := opt
			seqOpt.ReferenceKernels = true
			sq, err := NewSession(g, seqOpt)
			if err != nil {
				t.Fatalf("%s/%s: sequential session: %v", gname, oname, err)
			}
			swept := sweepAll(t, sw)
			if len(swept) != g.N {
				t.Fatalf("%s/%s: sweep yielded %d results, want %d", gname, oname, len(swept), g.N)
			}
			for d := 0; d < g.N; d++ {
				seq, err := sq.Solve(d)
				if err != nil {
					t.Fatalf("%s/%s: sequential dest %d: %v", gname, oname, d, err)
				}
				if !reflect.DeepEqual(swept[d], seq) {
					t.Errorf("%s/%s dest %d: sweep and sequential solves diverge:\nsweep      %+v\nsequential %+v",
						gname, oname, d, swept[d], seq)
				}
			}
			sw.Close()
			sq.Close()
		}
	}
}

// TestSolveSweepFaultParity covers damaged fabrics: with switch faults
// injected the sweep must run the reference instruction sequence and stay
// byte-identical to sequential solves on an identically damaged machine —
// including corrupted outputs (a silent fault corrupts both the same way).
func TestSolveSweepFaultParity(t *testing.T) {
	g := graph.GenRandomConnected(8, 0.4, 20, 6)
	h := g.BitsNeeded()
	for _, kind := range []ppa.FaultKind{ppa.StuckShort, ppa.StuckOpen} {
		for _, pe := range []int{0, 13, 37, 63} {
			mSweep := ppa.New(g.N, h)
			mSweep.InjectFault(pe, kind)
			mSeq := ppa.New(g.N, h)
			mSeq.InjectFault(pe, kind)
			sw, err := NewSessionOn(mSweep, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sq, err := NewSessionOn(mSeq, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			n := g.N
			dests := make([]int, n)
			for d := range dests {
				dests[d] = d
			}
			swept := make([]*Result, 0, n)
			sweepErr := sw.SolveSweep(context.Background(), dests, func(r *Result) error {
				swept = append(swept, r)
				return nil
			})
			for d := 0; d < n; d++ {
				seq, seqErr := sq.Solve(d)
				if seqErr != nil {
					// The damaged DP diverged: the sweep must have failed at
					// the same destination with the same error.
					if sweepErr == nil || len(swept) != d || sweepErr.Error() != seqErr.Error() {
						t.Fatalf("fault %v@%d dest %d: sequential error %v, sweep yielded %d results with error %v",
							kind, pe, d, seqErr, len(swept), sweepErr)
					}
					break
				}
				if d >= len(swept) {
					t.Fatalf("fault %v@%d: sweep stopped after %d results (%v), sequential succeeded at dest %d",
						kind, pe, len(swept), sweepErr, d)
				}
				if !reflect.DeepEqual(swept[d], seq) {
					t.Errorf("fault %v@%d dest %d: sweep and sequential solves diverge", kind, pe, d)
				}
			}
			sw.Close()
			sq.Close()
		}
	}
}

// TestSolveSweepEventStreamParity pins what an observer sees: a default
// session with an observer attached leaves the fused lane (which issues no
// transactions) for the machine program, so across a sweep, single solves,
// an update and warm re-solves its event stream — op kinds, directions and
// Open counts, in order — and every Result equal those of a
// ReferenceKernels session.
func TestSolveSweepEventStreamParity(t *testing.T) {
	g := graph.GenRandomConnected(8, 0.4, 20, 9)
	h := g.BitsNeeded()
	ctx := context.Background()
	batch := []graph.WeightUpdate{{U: 0, V: 3, W: 1}, {U: 5, V: 2, W: graph.NoEdge}}
	run := func(opt Options) ([]*Result, []ppa.Event) {
		m := ppa.New(g.N, h)
		var evs []ppa.Event
		m.SetObserver(func(e ppa.Event) { evs = append(evs, e) })
		s, err := NewSessionOn(m, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out := sweepAll(t, s)
		r, err := s.Solve(3)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
		for _, d := range []int{1, 6} {
			if r, err = s.Resolve(ctx, d); err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		if err := s.Update(batch); err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{1, 6} {
			if r, err = s.Resolve(ctx, d); err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return append(out, resolveSweepAll(t, s)...), evs
	}
	got, gotEvs := run(Options{})
	want, wantEvs := run(Options{ReferenceKernels: true})
	if len(gotEvs) == 0 {
		t.Fatal("observed default session raised no events")
	}
	if !reflect.DeepEqual(gotEvs, wantEvs) {
		t.Fatalf("observed default and reference event streams diverge: %d vs %d events",
			len(gotEvs), len(wantEvs))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("observed default and reference results diverge")
	}
}

// TestSolveSweepReload covers the pooled-serving pattern: the same warm
// session sweeps one graph, Reloads another, and sweeps again — the second
// sweep must match fresh sequential solves of the second graph exactly.
func TestSolveSweepReload(t *testing.T) {
	g1 := graph.GenRandomConnected(12, 0.4, 9, 11)
	g2 := graph.GenRandomConnected(12, 0.3, 9, 12)
	s, err := NewSession(g1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sweepAll(t, s)
	if err := s.Reload(g2); err != nil {
		t.Fatal(err)
	}
	swept := sweepAll(t, s)
	fresh, err := NewSession(g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for d := 0; d < g2.N; d++ {
		seq, err := fresh.Solve(d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept[d], seq) {
			t.Errorf("dest %d: post-Reload sweep diverges from fresh sequential solve", d)
		}
	}
}

// TestSolveSweepMixedWithSolve interleaves sweep and single solves on one
// session: the shared per-session scratch must not leave state behind
// that corrupts either style of follow-up call.
func TestSolveSweepMixedWithSolve(t *testing.T) {
	g := graph.GenRandomConnected(10, 0.4, 15, 13)
	s, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]*Result, g.N)
	for d := 0; d < g.N; d++ {
		if want[d], err = ref.Solve(d); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := s.Solve(3); err != nil || !reflect.DeepEqual(got, want[3]) {
		t.Fatalf("pre-sweep Solve(3) diverges (err %v)", err)
	}
	swept := sweepAll(t, s)
	for d := range swept {
		if !reflect.DeepEqual(swept[d], want[d]) {
			t.Errorf("sweep dest %d diverges after a plain Solve", d)
		}
	}
	if got, err := s.Solve(7); err != nil || !reflect.DeepEqual(got, want[7]) {
		t.Fatalf("post-sweep Solve(7) diverges (err %v)", err)
	}
	// Re-sweeping the same single destination twice reuses the scratch
	// for an unchanged destination (a duplicate inside one sweep is
	// rejected instead — see TestSweepDestValidation).
	for i := 0; i < 2; i++ {
		err = s.SolveSweep(context.Background(), []int{5}, func(r *Result) error {
			if !reflect.DeepEqual(r, want[5]) {
				t.Errorf("repeated-destination sweep diverges")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveSweepYieldStop: a non-nil yield error stops the sweep
// immediately and is returned unwrapped.
func TestSolveSweepYieldStop(t *testing.T) {
	g := graph.GenRandomConnected(8, 0.4, 9, 14)
	s, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := errors.New("stop")
	seen := 0
	err = s.SolveSweep(context.Background(), []int{0, 1, 2, 3}, func(*Result) error {
		seen++
		if seen == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("yield error not propagated: %v", err)
	}
	if seen != 2 {
		t.Fatalf("sweep continued after yield error: %d yields", seen)
	}
}

// TestSolveSweepErrors: destination validation and cancellation match
// SolveContext behavior.
func TestSolveSweepErrors(t *testing.T) {
	g := graph.GenRandomConnected(8, 0.4, 9, 15)
	s, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.SolveSweep(context.Background(), []int{0, 99}, func(*Result) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range destination: got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.SolveSweep(ctx, []int{0}, func(*Result) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep: got %v", err)
	}
	// The session survives both failures.
	if _, err := s.Solve(1); err != nil {
		t.Fatalf("session unusable after sweep errors: %v", err)
	}
}

// TestSolveSweepSteadyStateAllocs pins the sweep's allocation contract:
// once the session and the sweep scratch are warm, a full n-destination
// sweep allocates O(1) objects per destination — the yielded Result and
// its two output slices, nothing per iteration or per plane.
func TestSolveSweepSteadyStateAllocs(t *testing.T) {
	g := graph.GenRandomConnected(64, 0.3, 9, 5)
	s, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := g.N
	dests := make([]int, n)
	for d := range dests {
		dests[d] = d
	}
	run := func() {
		if err := s.SolveSweep(context.Background(), dests, func(*Result) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: allocates the sweep scratch
	allocs := testing.AllocsPerRun(3, run)
	perDest := allocs / float64(n)
	const maxPerDest = 8
	if perDest > maxPerDest {
		t.Fatalf("steady-state sweep allocates %.1f objects/destination (%.0f total), want <= %d",
			perDest, allocs, maxPerDest)
	}
}
