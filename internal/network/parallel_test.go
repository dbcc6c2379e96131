package network

import (
	"context"
	"testing"
)

// The paper-level guarantee of the census: worker count is
// invisible in the results. Serial (Jobs=1) and parallel (Jobs=8) runs
// must agree sample-for-sample, not just statistically.
func TestMpiGraphSerialParallelEquivalence(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Shifts = 6
	run := func(jobs int) MpiGraphResult {
		res, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Jobs: jobs, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if len(serial.Samples) == 0 {
		t.Fatal("no samples")
	}
	if len(serial.Samples) != len(parallel.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(serial.Samples), len(parallel.Samples))
	}
	for i := range serial.Samples {
		if serial.Samples[i] != parallel.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, serial.Samples[i], parallel.Samples[i])
		}
	}
	if serial.Min != parallel.Min || serial.Max != parallel.Max ||
		serial.Mean != parallel.Mean || serial.Median != parallel.Median {
		t.Fatalf("summary stats differ: %+v vs %+v", serial, parallel)
	}
}

// Different seeds must produce different censuses (the derived streams
// actually depend on the root seed).
func TestMpiGraphParallelSeedSensitivity(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Shifts = 4
	a, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Jobs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Jobs: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Samples) == len(b.Samples)
	if same {
		for i := range a.Samples {
			if a.Samples[i] != b.Samples[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical censuses")
	}
}

// The census on several workers must stay inside the physical envelope
// the single-worker census is tested against.
func TestMpiGraphParallelEnvelope(t *testing.T) {
	f := smallFabric(t)
	res, err := RunMpiGraph(context.Background(), f, DefaultMpiGraphConfig(), ParallelConfig{Jobs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nicPeak := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	if res.Max > nicPeak*1.1 {
		t.Errorf("max %.3g exceeds NIC ceiling %.3g", res.Max, nicPeak)
	}
	if res.Min <= 0 {
		t.Error("min should be positive")
	}
	if res.Spread() < 1.5 {
		t.Errorf("dragonfly spread = %.2f, want wide (>1.5)", res.Spread())
	}
}

func TestMpiGraphParallelErrors(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Nodes = 10000
	if _, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Seed: 4}); err == nil {
		t.Error("too many nodes should error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMpiGraph(ctx, f, DefaultMpiGraphConfig(), ParallelConfig{Seed: 4}); err == nil {
		t.Error("cancelled context should error")
	}
}

// The census measures exactly the shifts it is asked for: one sample
// per rank per node per shift, with no far shift added to a one-shift
// census.
func TestMpiGraphSampleCount(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Nodes = 20
	for _, shifts := range []int{1, 2, 3, 5} {
		cfg.Shifts = shifts
		res, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if want := shifts * cfg.Nodes * cfg.RanksPerNode; len(res.Samples) != want {
			t.Errorf("shifts=%d: %d samples, want %d", shifts, len(res.Samples), want)
		}
	}
}
