package experiments

import (
	"bytes"
	"context"
	"errors"
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

// A machine whose spec lacks what an experiment needs (a storage plant,
// a failure model, a scheduler) must return an error wrapping
// machine.ErrNotInSpec, never panic: the campaign server maps that error
// to 422 and runs async jobs on goroutines a panic would take the whole
// process down with. The scheduler campaigns once dereferenced a nil
// scheduler on the comparison machines.
func TestUnrunnableMachineWrapsNotInSpec(t *testing.T) {
	for _, c := range []struct{ exp, mach string }{
		{"sec54", "summit"},
		{"table2", "titan"},
		{"ext-year", "summit"},
		{"ext-llm", "titan"},
		{"ext-operations", "summit"},
		{"ext-campaign", "titan"},
	} {
		spec, err := machine.ByName(c.mach)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Capture(c.exp, Options{Quick: true, Seed: 42, Machine: &spec}, false)
		if !errors.Is(err, machine.ErrNotInSpec) {
			t.Errorf("%s on %s: err = %v, want one wrapping machine.ErrNotInSpec", c.exp, c.mach, err)
		}
	}
}
