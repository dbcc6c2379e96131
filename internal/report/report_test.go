package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRowDeviation(t *testing.T) {
	r := Row{PaperVal: 100, MeasuredVal: 105}
	if math.Abs(r.Deviation()-0.05) > 1e-12 {
		t.Errorf("deviation = %v, want 0.05", r.Deviation())
	}
	if !math.IsNaN((Row{PaperVal: 0, MeasuredVal: 5}).Deviation()) {
		t.Error("zero paper value should give NaN")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "t", Title: "demo"}
	tab.Add("alpha", "100", "105", 100, 105, "note-a")
	tab.AddInfo("beta", "hello", "info row")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "alpha", "+5.0%", "beta", "hello", "note-a"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{ID: "m", Title: "md"}
	tab.Add("x", "1", "2", 1, 2, "")
	var buf bytes.Buffer
	tab.Markdown(&buf)
	out := buf.String()
	if !strings.Contains(out, "| x | 1 | 2 | +100.0% |") {
		t.Errorf("markdown wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "### m — md") {
		t.Errorf("missing heading:\n%s", out)
	}
}

func TestMaxAbsDeviation(t *testing.T) {
	tab := &Table{}
	tab.Add("a", "", "", 100, 90, "")
	tab.Add("b", "", "", 100, 104, "")
	tab.AddInfo("c", "no comparison", "")
	if d := tab.MaxAbsDeviation(); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("max deviation = %v, want 0.10", d)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		25e9:   "25.0 GB/s",
		4.3e12: "4.30 TB/s",
		67e12:  "67.0 TB/s",
	}
	for v, want := range cases {
		if got := GB(v); got != want {
			t.Errorf("GB(%v) = %q, want %q", v, got, want)
		}
	}
}
