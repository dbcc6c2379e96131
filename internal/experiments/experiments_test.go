package experiments

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"frontiersim/internal/machine"
)

func quickOpts() Options { return Options{Quick: true, Seed: 42} }

// Every registered experiment must run and produce a table whose
// comparable rows sit within a reproduction envelope. The envelope is
// deliberately generous for the stochastic network experiments and tight
// for the deterministic hardware models.
func TestAllExperimentsRun(t *testing.T) {
	envelope := Envelopes()
	for _, r := range Registry() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			table, err := r.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s: empty table", r.ID)
			}
			if table.ID != r.ID {
				t.Errorf("table id %q != runner id %q", table.ID, r.ID)
			}
			if env, ok := envelope[r.ID]; ok {
				if dev := table.MaxAbsDeviation(); dev > env {
					t.Errorf("%s: worst deviation %.1f%% exceeds envelope %.0f%%",
						r.ID, dev*100, env*100)
				}
			}
			var buf bytes.Buffer
			table.Render(&buf)
			if buf.Len() == 0 {
				t.Error("empty render")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("table3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("table99"); err == nil {
		t.Error("unknown id should error")
	}
}

// EXPERIMENTS.md carries exactly one "### <id> — " section per
// registered experiment, in registry order, and none for an unregistered
// id, so adding or removing an experiment without regenerating the file
// (frontier-sim -markdown run all) fails here.
func TestExperimentsMarkdownMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, line := range strings.Split(string(doc), "\n") {
		if heading, ok := strings.CutPrefix(line, "### "); ok {
			id, _, _ := strings.Cut(heading, " — ")
			sections = append(sections, id)
		}
	}
	var ids []string
	for _, r := range Registry() {
		ids = append(ids, r.ID)
	}
	if !slices.Equal(sections, ids) {
		t.Errorf("EXPERIMENTS.md sections %v\ndo not match the registry %v", sections, ids)
	}
}

// The headline qualitative claims must hold regardless of exact numbers.
func TestHeadlineClaims(t *testing.T) {
	// Frontier exceeds an exaflop under 20 MW/EF (sec51).
	tab, err := Sec51(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var rmax, gfw float64
	for _, r := range tab.Rows {
		switch r.Name {
		case "HPL Rmax":
			rmax = r.MeasuredVal
		case "efficiency":
			gfw = r.MeasuredVal
		}
	}
	if rmax < 1.0 {
		t.Errorf("Rmax %.2f EF: Frontier must be exascale", rmax)
	}
	if gfw < 50 {
		t.Errorf("efficiency %.1f GF/W: must beat the 2008 report's 50", gfw)
	}

	// Every application beats its KPP (tables 6 and 7).
	for _, fn := range []Runner{{ID: "table6", Run: Table6}, {ID: "table7", Run: Table7}} {
		tab, err := fn.Run(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r.MeasuredVal <= 1 {
				t.Errorf("%s/%s: speedup %.2f must exceed 1", fn.ID, r.Name, r.MeasuredVal)
			}
		}
	}
}

// ext-burstbuffer's ML read-cache job takes 1,000 nodes, or the whole
// machine when it has fewer.
func TestExtBurstBufferFitsTheMachine(t *testing.T) {
	small := machine.Frontier()
	small.Topology.ComputeGroups = 4
	for _, c := range []struct {
		spec machine.Spec
		want string
	}{
		{machine.Frontier(), "1 PB dataset on 1,000 nodes"},
		{small, "1 PB dataset on 512 nodes"},
	} {
		out, err := Capture("ext-burstbuffer", Options{Quick: true, Seed: 42, Machine: &c.spec}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%d nodes: output lacks %q:\n%s", c.spec.Nodes(), c.want, out)
		}
	}
}
