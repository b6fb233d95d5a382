package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableFormat(t *testing.T) {
	tb := Table{
		ID:     "T0",
		Title:  "demo",
		Claim:  "c",
		Header: []string{"a", "bb"},
		Notes:  []string{"a note"},
	}
	tb.AddRow(1, "xyz")
	out := tb.Format()
	for _, want := range []string{"T0 — demo", "claim: c", "a", "bb", "xyz", "note: a note", "--"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := Table{ID: "T1", Title: "demo", Claim: "c", Header: []string{"a", "b"}, Notes: []string{"nb"}}
	tb.AddRow(1, 2)
	out := tb.Markdown()
	for _, want := range []string{"## T1 — demo", "**Claim:** c", "| a | b |", "|---|---|", "| 1 | 2 |", "*nb*"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func parseCell(t *testing.T, s string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", s)
	}
	return v
}

// TestE1Shape asserts the reproduced claim, not just that code runs: the
// min cost is flat in n and exactly h+2 in comm cycles.
func TestE1Shape(t *testing.T) {
	tb := RunE1()
	if len(tb.Rows) != len(E1Widths)*len(E1Sides) {
		t.Fatalf("row count %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		h := parseCell(t, row[0])
		comm := parseCell(t, row[4])
		if comm != h+2 {
			t.Errorf("h=%s n=%s: comm %d != h+2", row[0], row[1], comm)
		}
	}
}

// TestE2Shape: comm cycles are exactly linear in p at fixed h and match
// the analytic model.
func TestE2Shape(t *testing.T) {
	tb := RunE2()
	for _, row := range tb.Rows {
		p := parseCell(t, row[1])
		iters := parseCell(t, row[3])
		comm := parseCell(t, row[6])
		model := parseCell(t, row[7])
		if iters != p {
			t.Errorf("p=%d: iterations %d", p, iters)
		}
		_ = iters
		if comm != model { // model = 2ph (wired-OR) + 7p+2 (bus) + p (global-OR)
			t.Errorf("p=%d: comm %d, model %d", p, comm, model)
		}
	}
}

// TestE3Shape: mesh shifts grow superlinearly with n while PPA comm grows
// only with p*h; the largest-n row must show mesh >> PPA.
func TestE3Shape(t *testing.T) {
	tb := RunE3()
	if len(tb.Rows) != len(E3Sides) {
		t.Fatalf("row count %d", len(tb.Rows))
	}
	last := tb.Rows[len(tb.Rows)-1]
	h := parseCell(t, last[1])
	ppaComm := parseCell(t, last[3])
	gcnComm := parseCell(t, last[4])
	cubeWord := parseCell(t, last[5])
	cubeBit := parseCell(t, last[6])
	meshShifts := parseCell(t, last[7])
	if meshShifts <= ppaComm {
		t.Errorf("mesh (%d) did not lose to PPA (%d) at n=%s", meshShifts, ppaComm, last[0])
	}
	// Parity: GCN within a small constant factor of PPA.
	if gcnComm > ppaComm || ppaComm > 2*gcnComm {
		t.Errorf("PPA %d vs GCN %d outside the expected parity band", ppaComm, gcnComm)
	}
	// The bit-serial hypercube column is exactly h x the word-wide one.
	if cubeBit != h*cubeWord {
		t.Errorf("bit-serial cube %d != h(%d) x word cube %d", cubeBit, h, cubeWord)
	}
}

// TestE4Shape: the broadcast speedup is exactly n-1.
func TestE4Shape(t *testing.T) {
	tb := RunE4()
	for _, row := range tb.Rows {
		n := parseCell(t, row[0])
		bus := parseCell(t, row[1])
		shifts := parseCell(t, row[2])
		if bus != 1 || shifts != n-1 {
			t.Errorf("n=%d: bus %d shifts %d", n, bus, shifts)
		}
	}
}

// TestE5Shape: every workload reports equal outputs and equal cycles.
func TestE5Shape(t *testing.T) {
	tb := RunE5()
	if len(tb.Rows) != len(E5Cases) {
		t.Fatalf("row count %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[5] != "true" || row[6] != "true" {
			t.Errorf("workload %s: outputs equal %s, cycles equal %s", row[0], row[5], row[6])
		}
	}
}

// TestE6Shape: the virtualization ablation — comm/k is constant across
// physical sizes, i.e. cost scales by exactly k.
func TestE6Shape(t *testing.T) {
	tb := RunE6()
	if len(tb.Rows) != len(E6PhysicalSides) {
		t.Fatalf("row count %d", len(tb.Rows))
	}
	ref := parseCell(t, tb.Rows[0][7]) // (bus+wOR)/k at m = n (k = 1)
	for _, row := range tb.Rows {
		iters := parseCell(t, row[2])
		if iters != parseCell(t, tb.Rows[0][2]) {
			t.Errorf("m=%s: iterations changed to %d", row[0], iters)
		}
		if perK := parseCell(t, row[7]); perK != ref {
			t.Errorf("m=%s: (bus+wOR)/k = %d, want constant %d", row[0], perK, ref)
		}
		// Stitch shifts are exactly 2x the wired-OR count when virtualized.
		k := parseCell(t, row[1])
		if k > 1 && parseCell(t, row[5]) != 2*parseCell(t, row[4]) {
			t.Errorf("m=%s: stitch shifts %s != 2 x wired-OR %s", row[0], row[5], row[4])
		}
	}
}

// TestE7Shape: identical answers under both bus models; the switch-only
// comm count exceeds the wired one and both are finite/positive.
func TestE7Shape(t *testing.T) {
	tb := RunE7()
	if len(tb.Rows) != len(E7Widths) {
		t.Fatalf("row count %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		wired := parseCell(t, row[4])
		switched := parseCell(t, row[6])
		if switched <= wired {
			t.Errorf("h=%s: switch-only comm %d not above wired %d", row[0], switched, wired)
		}
		if switched > 3*wired {
			t.Errorf("h=%s: switch-only comm %d more than 3x wired %d", row[0], switched, wired)
		}
	}
}

// TestE8Shape: both all-pairs strategies agree on every distance, and the
// squaring shift count matches its 4(n-1)*squarings model.
func TestE8Shape(t *testing.T) {
	tb := RunE8()
	if len(tb.Rows) != len(E8Sides) {
		t.Fatalf("row count %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[6] != "true" {
			t.Errorf("n=%s: distances diverged", row[0])
		}
		n := parseCell(t, row[0])
		shifts := parseCell(t, row[4])
		squarings := parseCell(t, row[5])
		if shifts != 4*(n-1)*squarings {
			t.Errorf("n=%d: shifts %d, model %d", n, shifts, 4*(n-1)*squarings)
		}
	}
}

// TestE9Shape: the missed-corruption column is zero and the fault model
// is not a no-op.
func TestE9Shape(t *testing.T) {
	tb := RunE9()
	if len(tb.Rows) != 2 {
		t.Fatalf("row count %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		injections := parseCell(t, row[1])
		still := parseCell(t, row[2])
		caught := parseCell(t, row[3])
		missed := parseCell(t, row[4])
		diverged := parseCell(t, row[5])
		if missed != 0 {
			t.Errorf("%s: %d corrupted outputs escaped the certifier", row[0], missed)
		}
		if still+caught+missed+diverged != injections {
			t.Errorf("%s: outcome counts do not sum to %d", row[0], injections)
		}
		if caught+diverged == 0 {
			t.Errorf("%s: no fault disturbed the computation", row[0])
		}
	}
}

// TestExperiments pins the experiment index: ids exactly E1..E9 in
// order (hence unique). TestRunAll checks that each runner's table
// carries its entry's id.
func TestExperiments(t *testing.T) {
	if len(Experiments) != 9 {
		t.Fatalf("got %d experiments, want 9", len(Experiments))
	}
	for i, e := range Experiments {
		if want := "E" + strconv.Itoa(i+1); e.ID != want {
			t.Errorf("experiment %d is %s, want %s", i, e.ID, want)
		}
	}
}

func TestRunAll(t *testing.T) {
	tables := RunAll()
	if len(tables) != len(Experiments) {
		t.Fatalf("got %d tables, want %d", len(tables), len(Experiments))
	}
	for i, tb := range tables {
		if tb.ID != Experiments[i].ID {
			t.Errorf("table %d is %s, want %s", i, tb.ID, Experiments[i].ID)
		}
		if len(tb.Rows) == 0 || tb.Format() == "" {
			t.Errorf("table %s empty", tb.ID)
		}
	}
}

func TestMeasureBroadcast(t *testing.T) {
	bus, shifts := MeasureBroadcast(10)
	if bus != 1 || shifts != 9 {
		t.Errorf("MeasureBroadcast(10) = %d, %d", bus, shifts)
	}
}
