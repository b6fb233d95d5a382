package ppa

import "testing"

func TestInjectFaultValidation(t *testing.T) {
	m := New(3, 8)
	if m.Faulty() {
		t.Error("fresh machine reports faults")
	}
	m.InjectFault(4, StuckOpen)
	if !m.Faulty() {
		t.Error("injected fault not reported")
	}
	m.ClearFaults()
	if m.Faulty() {
		t.Error("ClearFaults did not clear")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range fault did not panic")
		}
	}()
	m.InjectFault(9, StuckShort)
}

func TestFaultKindString(t *testing.T) {
	if StuckShort.String() != "stuck-short" || StuckOpen.String() != "stuck-open" {
		t.Error("FaultKind strings wrong")
	}
}

func TestStuckOpenFragmentsBus(t *testing.T) {
	const n = 4
	m := New(n, 8)
	src := make([]Word, n*n)
	open := make([]bool, n*n)
	dst := make([]Word, n*n)
	// Healthy: single head at (0,0) broadcasting East fills row 0 with 9.
	open[0] = true
	src[0] = 9
	src[m.Index(0, 2)] = 5
	broadcastBools(m, East, open, src, dst)
	for c := 0; c < n; c++ {
		if dst[m.Index(0, c)] != 9 {
			t.Fatalf("healthy broadcast wrong at col %d", c)
		}
	}
	// Stuck-open at (0,2): it now injects its own value 5 into cols 3..0.
	m.InjectFault(m.Index(0, 2), StuckOpen)
	broadcastBools(m, East, open, src, dst)
	want := []Word{5, 9, 9, 5}
	for c := 0; c < n; c++ {
		if dst[m.Index(0, c)] != want[c] {
			t.Errorf("faulty broadcast col %d = %d, want %d", c, dst[m.Index(0, c)], want[c])
		}
	}
}

func TestStuckShortSilencesHead(t *testing.T) {
	const n = 3
	m := New(n, 8)
	src := make([]Word, n*n)
	open := make([]bool, n*n)
	dst := []Word{7, 7, 7, 7, 7, 7, 7, 7, 7}
	open[0] = true
	src[0] = 9
	m.InjectFault(0, StuckShort)
	broadcastBools(m, East, open, src, dst)
	// The only head is stuck short: row 0 floats and dst stays 7.
	for c := 0; c < n; c++ {
		if dst[m.Index(0, c)] != 7 {
			t.Errorf("col %d = %d, want untouched 7", c, dst[m.Index(0, c)])
		}
	}
}

func TestFaultsAffectWiredOrSegmentation(t *testing.T) {
	const n = 4
	m := New(n, 8)
	open := make([]bool, n*n)
	drive := make([]bool, n*n)
	dst := make([]bool, n*n)
	open[0] = true  // row 0 whole-ring cluster headed at col 0
	drive[3] = true // driver at col 3
	m.InjectFault(2, StuckOpen)
	wiredOrBools(m, East, open, drive, dst)
	// The stuck-open at col 2 splits the ring: cluster {0,1} has no driver,
	// cluster {2,3} has one.
	want := []bool{false, false, true, true}
	for c := 0; c < n; c++ {
		if dst[c] != want[c] {
			t.Errorf("col %d = %v, want %v", c, dst[c], want[c])
		}
	}
}

func TestFaultsDoNotMutateCallerConfig(t *testing.T) {
	m := New(2, 8)
	open := NewBitset(4)
	m.InjectFault(1, StuckOpen)
	m.BroadcastBits(East, open, make([]Word, 4), make([]Word, 4))
	if open.Get(1) {
		t.Error("caller's open plane was mutated by fault application")
	}
}

func TestObserverSeesTransactions(t *testing.T) {
	m := New(3, 8)
	var events []Event
	m.SetObserver(func(e Event) { events = append(events, e) })
	open := make([]bool, 9)
	open[4] = true
	src := make([]Word, 9)
	b := make([]bool, 9)
	broadcastBools(m, South, open, src, src)
	wiredOrBools(m, East, open, b, b)
	m.Shift(West, src, src)
	globalOrBools(m, b)
	if len(events) != 4 {
		t.Fatalf("observed %d events, want 4", len(events))
	}
	if events[0].Op != OpBroadcast || events[0].Dir != South || events[0].Opens != 1 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Op != OpWiredOr || events[2].Op != OpShift || events[3].Op != OpGlobalOr {
		t.Errorf("event kinds: %+v", events)
	}
	m.SetObserver(nil)
	m.Shift(West, src, src)
	if len(events) != 4 {
		t.Error("removed observer still fired")
	}
}

func TestObserverSeesPostFaultOpens(t *testing.T) {
	m := New(2, 8)
	var opens int
	m.SetObserver(func(e Event) { opens = e.Opens })
	m.InjectFault(0, StuckOpen)
	m.InjectFault(1, StuckOpen)
	m.BroadcastBits(East, NewBitset(4), make([]Word, 4), make([]Word, 4))
	if opens != 2 {
		t.Errorf("observer saw %d opens, want the 2 stuck-open faults", opens)
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpBroadcast: "broadcast", OpWiredOr: "wired-or",
		OpShift: "shift", OpGlobalOr: "global-or", OpKind(9): "OpKind(9)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestObserverEventCountsMatchMetrics ties the two instrumentation layers
// together: the number of events an observer sees per kind must equal the
// metric deltas.
func TestObserverEventCountsMatchMetrics(t *testing.T) {
	m := New(4, 8)
	counts := map[OpKind]int64{}
	m.SetObserver(func(e Event) { counts[e.Op]++ })
	open := make([]bool, 16)
	open[5] = true
	src := make([]Word, 16)
	b := make([]bool, 16)
	for i := 0; i < 3; i++ {
		broadcastBools(m, East, open, src, src)
	}
	for i := 0; i < 5; i++ {
		wiredOrBools(m, South, open, b, b)
	}
	m.Shift(West, src, src)
	globalOrBools(m, b)
	globalOrBools(m, b)
	got := m.Metrics()
	if counts[OpBroadcast] != got.BusCycles ||
		counts[OpWiredOr] != got.WiredOrCycles ||
		counts[OpShift] != got.ShiftSteps ||
		counts[OpGlobalOr] != got.GlobalOrOps {
		t.Errorf("observer counts %v disagree with metrics %v", counts, got)
	}
}
