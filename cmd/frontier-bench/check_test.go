package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

const sectionsOut = `### fig6 — mpiGraph census

| quantity | paper | measured | deviation | note |
|---|---|---|---|---|
| mean | 17 GB/s | 16.9 GB/s | -0.6% |  |

### table5 — GPCNeT

| quantity | paper | measured | deviation | note |
|---|---|---|---|---|
| latency | 2 us | 2.1 us | +5.0% |  |

`

func TestMarkdownSections(t *testing.T) {
	ids, secs := markdownSections(sectionsOut)
	if !reflect.DeepEqual(ids, []string{"fig6", "table5"}) {
		t.Fatalf("ids = %v", ids)
	}
	if !strings.HasPrefix(secs["table5"], "### table5 — GPCNeT\n") || !strings.HasSuffix(secs["table5"], "| +5.0% |  |\n") {
		t.Errorf("table5 section = %q", secs["table5"])
	}
}

func TestMissingSections(t *testing.T) {
	doc := "# EXPERIMENTS\n\n" + sectionsOut
	if m := missingSections(sectionsOut, doc); len(m) != 0 {
		t.Errorf("identical sections reported missing: %v", m)
	}
	changed := strings.Replace(sectionsOut, "2.1 us", "2.2 us", 1)
	if m := missingSections(changed, doc); !reflect.DeepEqual(m, []string{"table5"}) {
		t.Errorf("missingSections = %v, want [table5]", m)
	}
	// A section must match whole: a table that gained a row is not recorded.
	longer := strings.Replace(doc, "| +5.0% |  |\n", "| +5.0% |  |\n| extra | | 1 | |  |\n", 1)
	if m := missingSections(sectionsOut, longer); !reflect.DeepEqual(m, []string{"table5"}) {
		t.Errorf("missingSections against a longer table = %v, want [table5]", m)
	}
}

func TestRecordedExperimentsParse(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Skip("EXPERIMENTS.md not found:", err)
	}
	body := string(doc)[strings.Index(string(doc), "### "):]
	ids, _ := markdownSections(body)
	for _, w := range [][]string{census.ids, campaignRun.ids} {
		for _, id := range w {
			found := false
			for _, got := range ids {
				found = found || got == id
			}
			if !found {
				t.Errorf("EXPERIMENTS.md has no section for %s", id)
			}
		}
	}
	if m := missingSections(body, body); len(m) != 0 {
		t.Errorf("EXPERIMENTS.md sections not found in itself: %v", m)
	}
}

func TestNormalizeVerify(t *testing.T) {
	a := "fig6                 PASS  worst deviation   4.6% (envelope 35%)  [412ms]\nall experiments within their reproduction envelopes\n"
	b := "fig6                 PASS  worst deviation   4.6% (envelope 35%)  [1.2s]\nall experiments within their reproduction envelopes\n"
	if string(normalizeVerify([]byte(a))) != string(normalizeVerify([]byte(b))) {
		t.Errorf("verify lines differing only in duration normalize differently:\n%s\n%s", normalizeVerify([]byte(a)), normalizeVerify([]byte(b)))
	}
	c := strings.Replace(b, "4.6%", "4.7%", 1)
	if string(normalizeVerify([]byte(a))) == string(normalizeVerify([]byte(c))) {
		t.Error("normalization hid a changed deviation")
	}
}

func TestEnvelopeFailsOnly(t *testing.T) {
	pass := "fig6                 PASS  worst deviation   4.6% (envelope 35%)  [412ms]\n"
	missed := "table5               FAIL  worst deviation  31.0% (envelope 25%)  [80ms]\n"
	broken := "sec54                FAIL  (context deadline exceeded)\n"
	for _, c := range []struct {
		out  string
		want bool
	}{
		{pass + "all experiments within their reproduction envelopes\n", false},
		{pass + missed, true},
		{pass + missed + broken, false},
	} {
		if got := envelopeFailsOnly([]byte(c.out)); got != c.want {
			t.Errorf("envelopeFailsOnly(%q) = %v, want %v", c.out, got, c.want)
		}
	}
}
