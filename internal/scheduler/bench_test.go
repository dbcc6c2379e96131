package scheduler

import (
	"testing"

	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/rng"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// BenchmarkSchedulerChurn times the scheduler with the lightest jobs it
// runs: job.Blob jobs start and finish on the full 9,472-node Frontier
// with the year campaign's size classes and backfill depth. Each start
// binds the blob (one communicator, one Fixed phase, no pricing cache)
// and executes it. Sizes follow workload.YearMix — debug, midsize,
// capability and hero classes, a uniform fraction of the machine within
// each, rounded to the nearest power of two — with exponential
// walltimes of the class means. One op is one submitted job; jobs
// arrive every 2,400 simulated seconds (about 90% offered load), and
// arrivals pause while more than 64 jobs wait, so the queue stays the
// depth a year campaign sees.
func BenchmarkSchedulerChurn(b *testing.B) {
	classes := []struct {
		minFrac, maxFrac, weight float64
		meanWall                 units.Seconds
	}{
		{0.001, 0.01, 0.40, 30 * units.Minute},
		{0.01, 0.10, 0.35, 2 * units.Hour},
		{0.20, 0.50, 0.20, 4 * units.Hour},
		{0.90, 1.00, 0.05, 6 * units.Hour},
	}
	k := sim.NewKernel(1)
	s := newScheduler(b, k, machine.Frontier())
	s.BackfillDepth = 64
	r := rng.New(2023)
	type request struct {
		nodes int
		wall  units.Seconds
	}
	stream := make([]request, 4096)
	for i := range stream {
		c, u := classes[0], r.Float64()
		for _, cl := range classes {
			if u < cl.weight {
				c = cl
				break
			}
			u -= cl.weight
		}
		n := int((c.minFrac + r.Float64()*(c.maxFrac-c.minFrac)) * float64(s.totalNodes))
		p := 1
		for p <= n/2 {
			p *= 2
		}
		if n >= p+p/2 {
			p *= 2
		}
		stream[i] = request{min(p, s.totalNodes), units.Seconds(1 + r.ExpFloat64()*float64(c.meanWall))}
	}
	const interarrival = 2400 * units.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := stream[i%len(stream)]
		if _, err := s.Submit(job.Blob("churn", req.nodes, req.wall), nil); err != nil {
			b.Fatal(err)
		}
		k.RunUntil(k.Now() + interarrival)
		for s.queue.len() > 64 {
			k.RunUntil(k.Now() + interarrival)
		}
	}
	b.StopTimer()
	if s.Started < b.N/2 {
		b.Fatalf("only %d of %d jobs started", s.Started, b.N)
	}
}
