package core

import (
	"math"
	"testing"

	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/units"
)

// Table 1: Frontier compute peak specifications.
func TestTable1ComputeSpecs(t *testing.T) {
	s, err := New(machine.Frontier(), 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := s.ComputeSpecs()
	if specs.Nodes != 9472 {
		t.Errorf("nodes = %d, want 9472", specs.Nodes)
	}
	// FP64: vector peak 1.83 EF; DGEMM-achievable 2.56 EF. The paper's
	// "2.0 EF" sits between the two conventions.
	vec := float64(specs.FP64VectorPeak) / 1e18
	gemm := float64(specs.FP64DGEMM) / 1e18
	if math.Abs(vec-1.83) > 0.02 {
		t.Errorf("FP64 vector peak = %.2f EF, want 1.83", vec)
	}
	if gemm < 2.0 || gemm > 2.7 {
		t.Errorf("FP64 DGEMM = %.2f EF, want >= the paper's 2.0", gemm)
	}
	// DDR4: 4.6 PiB capacity, ~1.9 PB/s bandwidth.
	if got := float64(specs.DDRCapacity) / float64(units.PiB); math.Abs(got-4.625) > 0.01 {
		t.Errorf("DDR capacity = %.2f PiB, want 4.6", got)
	}
	if got := float64(specs.DDRBandwidth) / 1e15; math.Abs(got-1.94) > 0.02 {
		t.Errorf("DDR bandwidth = %.2f PB/s, want ~1.9", got)
	}
	// HBM2e: 4.6 PiB capacity, ~124 PB/s bandwidth.
	if got := float64(specs.HBMCapacity) / float64(units.PiB); math.Abs(got-4.625) > 0.01 {
		t.Errorf("HBM capacity = %.2f PiB, want 4.6", got)
	}
	if got := float64(specs.HBMBandwidth) / 1e15; math.Abs(got-123.9) > 0.5 {
		t.Errorf("HBM bandwidth = %.1f PB/s, want 123.9", got)
	}
	// Injection 100 GB/s per node; global 270.1 TB/s (one direction).
	if specs.InjectionPerNode != 100*units.GBps {
		t.Errorf("injection = %v, want 100 GB/s", specs.InjectionPerNode)
	}
	if got := float64(specs.GlobalBandwidth) / 1e12; math.Abs(got-270.1) > 0.2 {
		t.Errorf("global = %.1f TB/s, want 270.1", got)
	}
}

func TestFrontierComposition(t *testing.T) {
	s, err := New(machine.Frontier(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Node == nil || s.Scheduler == nil || s.Scheduler.Env.Orion == nil || s.Scheduler.Env.NodeLocal == nil {
		t.Fatal("incomplete composition")
	}
	if s.Fabric.Cfg.ComputeNodes() != 9472 {
		t.Errorf("fabric nodes = %d", s.Fabric.Cfg.ComputeNodes())
	}
	if mtti := float64(s.Reliability.SystemMTTI()) / 3600; mtti < 3 || mtti > 9 {
		t.Errorf("MTTI = %.1f h", mtti)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestScaledFrontier(t *testing.T) {
	s, err := New(machine.Scaled(6, 8, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fabric.Cfg.ComputeNodes() != 48 {
		t.Errorf("scaled nodes = %d, want 48", s.Fabric.Cfg.ComputeNodes())
	}
	// Scheduler works end-to-end on the composed system.
	j, err := s.Scheduler.Submit(job.Blob("smoke", 16, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Kernel.Run()
	if j.State.String() != "completed" {
		t.Errorf("job state = %v", j.State)
	}
}

// Summit composes at lower fidelity: its fat tree, but no Bard Peak
// node model and hence no scheduler.
func TestSummitSystem(t *testing.T) {
	s, err := New(machine.Summit(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fabric.Cfg.ComputeNodes() != 4608 {
		t.Errorf("summit nodes = %d, want 4608", s.Fabric.Cfg.ComputeNodes())
	}
	if s.Node != nil || s.Scheduler != nil {
		t.Error("summit has no Bard Peak node model, so no node template or scheduler")
	}
}

func TestInvalidScaledConfig(t *testing.T) {
	if _, err := New(machine.Scaled(0, 8, 4), 1); err == nil {
		t.Error("zero groups should error")
	}
}
