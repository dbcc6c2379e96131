// Package report renders experiment results as paper-vs-measured tables:
// every reproduced table and figure emits one Table whose rows pair the
// value printed in the paper with the value the simulator produced, plus
// the relative deviation where both are numeric.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Row is one compared quantity.
type Row struct {
	Name string
	// Paper is the value as printed in the paper (already formatted,
	// with units); Measured is the simulator's value.
	Paper    string
	Measured string
	// PaperVal and MeasuredVal, when both non-zero, let the renderer
	// print a deviation column.
	PaperVal    float64
	MeasuredVal float64
	// Note carries provenance or caveats.
	Note string
}

// Deviation returns the relative difference, or NaN when not comparable.
func (r Row) Deviation() float64 {
	if r.PaperVal == 0 || r.MeasuredVal == 0 {
		return math.NaN()
	}
	return r.MeasuredVal/r.PaperVal - 1
}

// Table is one reproduced artifact.
type Table struct {
	ID    string // e.g. "table3", "fig6"
	Title string
	Rows  []Row
}

// Add appends a compared row with numeric deviation tracking.
func (t *Table) Add(name, paper, measured string, paperVal, measuredVal float64, note string) {
	t.Rows = append(t.Rows, Row{
		Name: name, Paper: paper, Measured: measured,
		PaperVal: paperVal, MeasuredVal: measuredVal, Note: note,
	})
}

// AddInfo appends a row without a paper-side comparison.
func (t *Table) AddInfo(name, measured, note string) {
	t.Rows = append(t.Rows, Row{Name: name, Measured: measured, Note: note})
}

// MaxAbsDeviation returns the largest |deviation| across comparable rows.
func (t *Table) MaxAbsDeviation() float64 {
	worst := 0.0
	for _, r := range t.Rows {
		if d := math.Abs(r.Deviation()); !math.IsNaN(d) && d > worst {
			worst = d
		}
	}
	return worst
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	name, paper, meas := len("quantity"), len("paper"), len("measured")
	for _, r := range t.Rows {
		name = max(name, len(r.Name))
		paper = max(paper, len(r.Paper))
		meas = max(meas, len(r.Measured))
	}
	fmt.Fprintf(w, "%-*s  %*s  %*s  %9s  %s\n", name, "quantity", paper, "paper", meas, "measured", "deviation", "note")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", name+paper+meas+24))
	for _, r := range t.Rows {
		dev := ""
		if d := r.Deviation(); !math.IsNaN(d) {
			dev = fmt.Sprintf("%+.1f%%", d*100)
		}
		fmt.Fprintf(w, "%-*s  %*s  %*s  %9s  %s\n", name, r.Name, paper, r.Paper, meas, r.Measured, dev, r.Note)
	}
	fmt.Fprintln(w)
}

// Markdown writes the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintln(w, "| quantity | paper | measured | deviation | note |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, r := range t.Rows {
		dev := ""
		if d := r.Deviation(); !math.IsNaN(d) {
			dev = fmt.Sprintf("%+.1f%%", d*100)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n", r.Name, r.Paper, r.Measured, dev, r.Note)
	}
	fmt.Fprintln(w)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// GB formats bytes/s as GB/s with adaptive precision.
func GB(v float64) string {
	switch {
	case v >= 1e13:
		return fmt.Sprintf("%.1f TB/s", v/1e12)
	case v >= 1e12:
		return fmt.Sprintf("%.2f TB/s", v/1e12)
	default:
		return fmt.Sprintf("%.1f GB/s", v/1e9)
	}
}
