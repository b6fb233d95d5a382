// Package bench is the experiment harness of the reproduction: one
// deterministic runner per experiment in DESIGN.md's index (E1-E9), each
// returning a formatted Table. cmd/benchtab prints them; the root
// bench_test.go wraps the same workloads in testing.B benchmarks; and
// EXPERIMENTS.md records their output next to the paper's claims.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: a titled grid of stringified cells.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper statement the experiment reproduces
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned monospace text.
func (t Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavoured markdown section, the
// format EXPERIMENTS.md embeds (benchtab -format markdown).
func (t Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "**Claim:** %s\n\n", t.Claim)
	}
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	return sb.String()
}
