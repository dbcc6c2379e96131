package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkRunAllParallel-8   \t       1\t8648000000 ns/op\t        12.5 max-deviation-%")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Name != "BenchmarkRunAllParallel" || b.Procs != 8 {
		t.Errorf("name/procs = %q/%d", b.Name, b.Procs)
	}
	if b.Iterations != 1 || b.NsPerOp != 8648000000 {
		t.Errorf("iters/ns = %d/%g", b.Iterations, b.NsPerOp)
	}
	if b.Metrics["max-deviation-%"] != 12.5 {
		t.Errorf("metrics = %v", b.Metrics)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{"", "Benchmark", "BenchmarkX notanint ns/op"} {
		if _, ok := parseLine(line); ok {
			t.Errorf("%q should not parse", line)
		}
	}
}

func TestParseLineNoProcsSuffix(t *testing.T) {
	b, ok := parseLine("BenchmarkFoo 10 100 ns/op")
	if !ok || b.Name != "BenchmarkFoo" || b.Procs != 0 {
		t.Errorf("got %+v ok=%v", b, ok)
	}
}

func TestParseLineBenchmem(t *testing.T) {
	b, ok := parseLine("BenchmarkMaxMinSolve-8   \t     20\t 943732 ns/op\t   94681 B/op\t     882 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.NsPerOp != 943732 {
		t.Errorf("ns/op = %g", b.NsPerOp)
	}
	if b.BytesPerOp != 94681 {
		t.Errorf("bytes_per_op = %g, want 94681", b.BytesPerOp)
	}
	if b.AllocsPerOp != 882 {
		t.Errorf("allocs_per_op = %g, want 882", b.AllocsPerOp)
	}
	if _, ok := b.Metrics["B/op"]; ok {
		t.Error("B/op should be a first-class field, not a generic metric")
	}
	if _, ok := b.Metrics["allocs/op"]; ok {
		t.Error("allocs/op should be a first-class field, not a generic metric")
	}
}

func TestNsGated(t *testing.T) {
	for name, want := range map[string]bool{
		"BenchmarkKernelSchedule":       true,
		"BenchmarkResiliencyYear":       true,
		"BenchmarkCampaignWeek":         true,
		"BenchmarkCampaignYear":         true,
		"BenchmarkSolveColdFullScale":   true,
		"BenchmarkGPCNeTSolveFullScale": true,
		"BenchmarkMaxMinSolve":          false,
		"BenchmarkRunAllParallel":       false,
		// No transport benchmark exists: its old prefix is not gated.
		"BenchmarkTransportStorm": false,
	} {
		if got := nsGated(name); got != want {
			t.Errorf("nsGated(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestEpsGated(t *testing.T) {
	for name, want := range map[string]bool{
		"BenchmarkKernelSchedule": true,
		"BenchmarkResiliencyYear": true,
		"BenchmarkCampaignYear":   false,
		"BenchmarkSchedulerChurn": false,
		// No transport benchmark exists: its old prefix is not gated.
		"BenchmarkTransportStorm/big": false,
	} {
		if got := epsGated(name); got != want {
			t.Errorf("epsGated(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestCompareGatesEventsPerSecDrop(t *testing.T) {
	dir := t.TempDir()
	oldRep := writeReport(t, dir, "old",
		Benchmark{Name: "BenchmarkResiliencyYear", EventsPerSec: 4000000})
	newRep := writeReport(t, dir, "new",
		Benchmark{Name: "BenchmarkResiliencyYear", EventsPerSec: 3000000})
	if got := runCompare([]string{oldRep, newRep}, 0.20); got != 3 {
		t.Errorf("-25%% events/sec on the failure-injector benchmark: exit %d, want 3", got)
	}
}

func TestCompareEventsPerSecDropWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	oldRep := writeReport(t, dir, "old",
		Benchmark{Name: "BenchmarkKernelSchedule", EventsPerSec: 4000000})
	newRep := writeReport(t, dir, "new",
		Benchmark{Name: "BenchmarkKernelSchedule", EventsPerSec: 3500000})
	if got := runCompare([]string{oldRep, newRep}, 0.20); got != 0 {
		t.Errorf("-12.5%% events/sec under a 20%% threshold: exit %d, want 0", got)
	}
}

// An events/sec INCREASE must never flag, whatever the magnitude.
func TestCompareEventsPerSecGainPasses(t *testing.T) {
	dir := t.TempDir()
	oldRep := writeReport(t, dir, "old",
		Benchmark{Name: "BenchmarkKernelSchedule", EventsPerSec: 1000000})
	newRep := writeReport(t, dir, "new",
		Benchmark{Name: "BenchmarkKernelSchedule", EventsPerSec: 9000000})
	if got := runCompare([]string{oldRep, newRep}, 0.20); got != 0 {
		t.Errorf("9x events/sec gain: exit %d, want 0", got)
	}
}

// writeReport marshals a report to a temp file for compare-mode tests.
func writeReport(t *testing.T, dir, name string, benches ...Benchmark) string {
	t.Helper()
	data, err := json.Marshal(Report{SHA: name, Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGatesKernelNsOp(t *testing.T) {
	dir := t.TempDir()
	oldRep := writeReport(t, dir, "old",
		Benchmark{Name: "BenchmarkKernelSchedule", NsPerOp: 100})
	newRep := writeReport(t, dir, "new",
		Benchmark{Name: "BenchmarkKernelSchedule", NsPerOp: 150})
	if got := runCompare([]string{oldRep, newRep}, 0.20); got != 3 {
		t.Errorf("+50%% ns/op on a kernel benchmark: exit %d, want 3", got)
	}
}

func TestCompareIgnoresNsOpOnUngatedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	oldRep := writeReport(t, dir, "old",
		Benchmark{Name: "BenchmarkMaxMinSolve", NsPerOp: 100})
	newRep := writeReport(t, dir, "new",
		Benchmark{Name: "BenchmarkMaxMinSolve", NsPerOp: 500})
	if got := runCompare([]string{oldRep, newRep}, 0.20); got != 0 {
		t.Errorf("ns/op noise on an ungated benchmark: exit %d, want 0", got)
	}
}

func TestCompareNsOpWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	oldRep := writeReport(t, dir, "old",
		Benchmark{Name: "BenchmarkResiliencyYear", NsPerOp: 100, AllocsPerOp: 10})
	newRep := writeReport(t, dir, "new",
		Benchmark{Name: "BenchmarkResiliencyYear", NsPerOp: 115, AllocsPerOp: 10})
	if got := runCompare([]string{oldRep, newRep}, 0.20); got != 0 {
		t.Errorf("+15%% ns/op under a +20%% threshold: exit %d, want 0", got)
	}
}

func TestCompareStillFlagsAllocRegressions(t *testing.T) {
	dir := t.TempDir()
	oldRep := writeReport(t, dir, "old",
		Benchmark{Name: "BenchmarkMaxMinSolve", AllocsPerOp: 100})
	newRep := writeReport(t, dir, "new",
		Benchmark{Name: "BenchmarkMaxMinSolve", AllocsPerOp: 130})
	if got := runCompare([]string{oldRep, newRep}, 0.20); got != 3 {
		t.Errorf("+30%% allocs/op: exit %d, want 3", got)
	}
}

func TestParseLineBenchmemWithExtraMetric(t *testing.T) {
	b, ok := parseLine("BenchmarkFig6MpiGraph-8 1 100 ns/op 12.5 max-deviation-% 64 B/op 2 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.BytesPerOp != 64 || b.AllocsPerOp != 2 {
		t.Errorf("benchmem fields = %g/%g, want 64/2", b.BytesPerOp, b.AllocsPerOp)
	}
	if b.Metrics["max-deviation-%"] != 12.5 {
		t.Errorf("metrics = %v", b.Metrics)
	}
}

func TestParseLinePromotesEventsPerSec(t *testing.T) {
	b, ok := parseLine("BenchmarkKernelSchedule/deep-8  \t      92\t  12706269 ns/op\t   4148339 events/sec\t  290192 B/op\t    1918 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Name != "BenchmarkKernelSchedule/deep" {
		t.Errorf("name = %q (sub-benchmark path must survive, -procs suffix must not)", b.Name)
	}
	if b.EventsPerSec != 4148339 {
		t.Errorf("events_per_sec = %g, want 4148339", b.EventsPerSec)
	}
	if b.Metrics["events/sec"] != 4148339 {
		t.Error("events/sec must stay in Metrics for pre-field report readers")
	}
}

func TestEventsPerSecFallsBackToMetrics(t *testing.T) {
	// A report archived before the field existed has the value only in
	// Metrics; the accessor must still find it.
	old := Benchmark{Name: "BenchmarkResiliencyYear", Metrics: map[string]float64{"events/sec": 123}}
	if got := old.eventsPerSec(); got != 123 {
		t.Errorf("eventsPerSec() = %g, want 123 via Metrics fallback", got)
	}
}

func TestCompareReportsEventsPerSecWithoutGating(t *testing.T) {
	// Halved throughput is reported but must not fail the comparison on
	// its own — that's what the ns/op gate is for. Sub-benchmarks gated
	// by name prefix still apply, so use an ungated name here.
	dir := t.TempDir()
	oldRep := writeReport(t, dir, "old",
		Benchmark{Name: "BenchmarkSchedulerChurn", EventsPerSec: 4000000})
	newRep := writeReport(t, dir, "new",
		Benchmark{Name: "BenchmarkSchedulerChurn", EventsPerSec: 2000000})
	if got := runCompare([]string{oldRep, newRep}, 0.20); got != 0 {
		t.Errorf("events/sec drop alone: exit %d, want 0 (reported, not gated)", got)
	}
}
