package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"frontiersim/internal/machine"
)

// TestCaptureMatchesRunAll pins the campaign server's contract: the
// captured bytes for an experiment equal what the CLI's run path renders
// for the same root seed, because both derive the per-experiment seed
// from (root seed, id).
func TestCaptureMatchesRunAll(t *testing.T) {
	o := Options{Quick: true, Seed: 42}
	r, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(context.Background(), []Runner{r}, o, RunConfig{Jobs: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	results[0].Table.Render(&want)

	got, err := Capture("table2", o, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Capture output differs from RunAll rendering:\n--- capture ---\n%s--- runall ---\n%s", got, want.Bytes())
	}
}

func TestCaptureMarkdown(t *testing.T) {
	got, err := Capture("table2", Options{Quick: true, Seed: 42}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), "### table2") {
		t.Fatalf("markdown capture starts %q, want a ### heading", string(got[:min(40, len(got))]))
	}
}

func TestCaptureUnknownID(t *testing.T) {
	if _, err := Capture("fig99", Options{}, false); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("err = %v, want unknown-id naming fig99", err)
	}
}

// Every experiment runs on every comparison machine and on a Frontier
// cut to 40 compute groups, or says at the source that the machine lacks
// a part it needs: an error wrapping machine.ErrNotInSpec, which the
// campaign server maps to 422. Never another error, and never a panic:
// async jobs run on goroutines a panic would take the whole process
// down with (the scheduler campaigns once dereferenced a nil scheduler
// on the comparison machines).
func TestUnrunnableMachineWrapsNotInSpec(t *testing.T) {
	frontier40 := machine.Frontier()
	frontier40.Topology.ComputeGroups = 40
	// Two compute groups of two switches of four endpoints: four nodes,
	// fewer than GPCNeT needs, on a spec that Validate accepts.
	tiny := machine.Frontier()
	tiny.Topology.ComputeGroups = 2
	tiny.Topology.ComputeGroupSwitches = 2
	tiny.Topology.EndpointsPerSwitch = 4
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
	specs := map[string]machine.Spec{"frontier-40-groups": frontier40, "frontier-2x2x4": tiny}
	for _, name := range []string{"summit", "titan", "mira", "theta", "cori"} {
		spec, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs[name] = spec
	}
	// Pairs whose outcome is part of the contract, not just its shape.
	mustRun := map[[2]string]bool{
		{"ablation-cc", "summit"}:             true,
		{"ablation-cc", "frontier-40-groups"}: true,
	}
	mustRefuse := map[[2]string]bool{
		{"table1", "summit"}:               true,
		{"table3", "summit"}:               true,
		{"ablation-taper", "summit"}:       true,
		{"ablation-placement", "summit"}:   true,
		{"sec54", "summit"}:                true,
		{"table2", "titan"}:                true,
		{"ext-year", "summit"}:             true,
		{"ext-llm", "titan"}:               true,
		{"ext-operations", "summit"}:       true,
		{"ext-campaign", "titan"}:          true,
		{"table5", "frontier-2x2x4"}:       true,
		{"ablation-cc", "frontier-2x2x4"}:  true,
		{"ablation-ppn", "frontier-2x2x4"}: true,
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, r := range Registry() {
				out, err := captureRecovered(r.ID, Options{Quick: true, Seed: 42, Machine: &spec})
				pair := [2]string{r.ID, name}
				switch {
				case err == nil && len(out) == 0:
					t.Errorf("%s: empty table", r.ID)
				case err != nil && !errors.Is(err, machine.ErrNotInSpec):
					t.Errorf("%s: err = %v, want a table or an error wrapping machine.ErrNotInSpec", r.ID, err)
				case err != nil && mustRun[pair]:
					t.Errorf("%s: err = %v, want a table", r.ID, err)
				case err == nil && mustRefuse[pair]:
					t.Errorf("%s: ran, want an error wrapping machine.ErrNotInSpec", r.ID)
				}
			}
		})
	}
}

// captureRecovered is Capture with a panic turned into an error.
func captureRecovered(id string, o Options) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return Capture(id, o, false)
}
