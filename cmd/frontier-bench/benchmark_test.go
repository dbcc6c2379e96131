package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// this program prints in step: same workloads, same metric names, same
// units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Paths     []string
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []string) {
		var gotNames []string
		for _, m := range got {
			gotNames = append(gotNames, m.Name)
			if m.Unit != unitOf(m.Name) {
				t.Errorf("%s %s: unit %q, program prints %q", kind, m.Name, m.Unit, unitOf(m.Name))
			}
		}
		if !reflect.DeepEqual(gotNames, want) {
			t.Errorf("BENCHMARK.json %s\n  %v\nprogram reports\n  %v", kind, gotNames, want)
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer())
	if !reflect.DeepEqual(f.Paths, []string{"cmd/frontier-bench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
}

// TestSmokeEveryWorkload runs each workload briefly against freshly built
// binaries: batch workloads in quick mode, traced and untraced, and the
// serve workload for a second of traffic. Every check must pass.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the simulator and runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Clean(filepath.Join(wd, "../.."))
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()
	bin, err := build(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(bin)
	e := env{root: root, seed: 3, seconds: 0.1, nproc: 2, profile: filepath.Join(t.TempDir(), "cpu.pprof"),
		sim: filepath.Join(bin, "frontier-sim"), serve: filepath.Join(bin, "frontier-serve")}

	small := []struct {
		name string
		b    batch
	}{
		{"census", batch{ids: census.ids, quick: true, jobs: 1}},
		{"campaign", batch{ids: campaignRun.ids, quick: true, jobs: 1}},
		{"quick-verify", quickVerify},
	}
	for _, w := range small {
		o := &outcome{workload: w.name}
		if _, err := w.b.traced(ctx, e, o, newTracer()); err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		expectClean(t, o, perLayer(), []string{"harness.makespan_s", "harness.work_s", "gc.alloc_mb"})
	}
	o := &outcome{workload: "census"}
	if err := small[0].b.measure(ctx, e, o); err != nil {
		t.Fatal(err)
	}
	expectClean(t, o, endToEnd, endToEnd)

	e.seconds = 1
	o = &outcome{workload: "serve"}
	if err := measureServe(ctx, e, o); err != nil {
		t.Fatal(err)
	}
	expectClean(t, o, endToEnd, endToEnd)
	o = &outcome{workload: "serve"}
	tr := newTracer()
	if _, err := tracedServe(ctx, e, o, tr); err != nil {
		t.Fatal(err)
	}
	expectClean(t, o, perLayer(), []string{"campaign.result_hits", "campaign.hit_handler_p50_ms"})
	if err := writeArtifacts(t.TempDir(), tr, windowStats{}, o); err != nil {
		t.Fatal(err)
	}
}

// expectClean fails the test if o failed any check, and completes o's
// metrics against names, requiring the positive ones to be above zero.
func expectClean(t *testing.T, o *outcome, names, positive []string) {
	t.Helper()
	if o.failed > 0 || o.attempted == 0 {
		t.Errorf("%s: %d of %d operations failed: %v", o.workload, o.failed, o.attempted, o.failures)
	}
	o.complete(names)
	for _, m := range o.metrics {
		for _, p := range positive {
			if m.name == p && !(m.value > 0) {
				t.Errorf("%s: %s = %v, want > 0", o.workload, m.name, m.value)
			}
		}
	}
}
