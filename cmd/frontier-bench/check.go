package main

import (
	"math"
	"regexp"
	"strings"

	"frontiersim/internal/experiments"
	"frontiersim/internal/report"
)

var heading = regexp.MustCompile(`(?m)^### `)

// markdownSections splits frontier-sim -markdown output into its
// "### <id> — <title>" sections, keyed by experiment id, in output order.
// Each section keeps its heading and ends with its last table row.
func markdownSections(out string) (ids []string, secs map[string]string) {
	secs = map[string]string{}
	for _, s := range heading.Split(out, -1)[1:] {
		id, _, _ := strings.Cut(s, " ")
		ids = append(ids, id)
		secs[id] = "### " + strings.TrimRight(s, "\n") + "\n"
	}
	return ids, secs
}

// missingSections returns the ids of out's sections that do not appear
// verbatim in doc (EXPERIMENTS.md, which is `-markdown run all` at seed 42)
// as a whole section: from the start of a line to a blank line.
func missingSections(out, doc string) []string {
	ids, secs := markdownSections(out)
	padded := "\n" + doc + "\n"
	var missing []string
	for _, id := range ids {
		if !strings.Contains(padded, "\n"+secs[id]+"\n") {
			missing = append(missing, id)
		}
	}
	return missing
}

// verifyDuration matches the "[1.234s]" wall time verify appends to each
// line; it is the only part of verify's output that is not deterministic.
var verifyDuration = regexp.MustCompile(`(?m)\s+\[[^\]\n]*\]$`)

func normalizeVerify(out []byte) []byte { return verifyDuration.ReplaceAll(out, nil) }

// envelopeFailsOnly reports whether verify output has FAIL lines and each
// is a reproduction envelope missed ("FAIL  worst deviation ..."), not an
// experiment that could not run ("FAIL  (error)").
func envelopeFailsOnly(out []byte) bool {
	failed := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[1] == "FAIL" {
			if len(f) < 3 || f[2] != "worst" {
				return false
			}
			failed = true
		}
	}
	return failed
}

// withinEnvelope applies verify's rule to one table: its worst deviation
// from the paper stays inside the experiment's envelope, if it has one.
func withinEnvelope(t *report.Table, envelope float64) bool {
	d := t.MaxAbsDeviation()
	return envelope == 0 || d <= envelope || math.IsNaN(d)
}

// verifyLines renders RunAll results the way `frontier-sim verify` prints
// them, so a traced in-process verify can be compared with the CLI's.
func verifyLines(results []experiments.RunResult) []byte {
	envs := experiments.Envelopes()
	var b strings.Builder
	all := true
	for _, r := range results {
		v := experiments.VerifyResult{ID: r.ID, Envelope: envs[r.ID], Duration: r.Duration, Err: r.Err}
		if r.Err == nil {
			v.WorstDeviation = r.Table.MaxAbsDeviation()
			v.Pass = withinEnvelope(r.Table, v.Envelope)
		}
		all = all && v.Pass
		b.WriteString(v.String() + "\n")
	}
	if all {
		b.WriteString("all experiments within their reproduction envelopes\n")
	}
	return []byte(b.String())
}
