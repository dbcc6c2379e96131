package gpu

import (
	"math"
	"testing"

	"frontiersim/internal/units"
)

func tf(f units.Flops) float64 { return float64(f) / 1e12 }

func TestGCDShape(t *testing.T) {
	g := NewMI250XGCD()
	if g.ComputeUnits != 110 {
		t.Errorf("CUs = %d, want 110", g.ComputeUnits)
	}
	if got := tf(g.VectorPeak[FP64]); math.Abs(got-23.95) > 0.01 {
		t.Errorf("FP64 vector peak = %.2f TF, want 23.95", got)
	}
	if g.HBM.Capacity() != 64*units.GiB {
		t.Errorf("HBM = %v, want 64 GiB", g.HBM.Capacity())
	}
}

func TestPrecisionHelpers(t *testing.T) {
	if FP64.Bytes() != 8 || FP32.Bytes() != 4 || FP16.Bytes() != 2 {
		t.Error("precision byte sizes wrong")
	}
	if FP64.String() != "FP64" || FP16.String() != "FP16" {
		t.Error("precision names wrong")
	}
	if Precision(9).String() != "Precision(9)" {
		t.Error("unknown precision formatting wrong")
	}
}

// Figure 3: achieved GEMM values per precision.
func TestGemmFigure3Values(t *testing.T) {
	g := NewMI250XGCD()
	want := map[Precision]float64{FP64: 33.8, FP32: 24.1, FP16: 111.2}
	for p, w := range want {
		got := tf(g.GemmAchieved(p, 16384))
		if math.Abs(got-w)/w > 0.02 {
			t.Errorf("%s GEMM achieved = %.1f TF, want %.1f ±2%%", p, got, w)
		}
	}
}

func TestGemmExceedsVectorPeak(t *testing.T) {
	// The paper's headline observation: FP64 and FP32 exceed the GCD's
	// vector peak because hipBLAS uses matrix cores.
	rows := NewMI250XGCD().Figure3()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		switch r.Precision {
		case FP64, FP32:
			if !r.ExceedsPeak {
				t.Errorf("%s should exceed vector peak", r.Precision)
			}
		case FP16:
			if r.ExceedsPeak {
				t.Error("FP16 achieved should not exceed matrix peak")
			}
		}
		if r.String() == "" {
			t.Error("empty comparison formatting")
		}
	}
}

func TestGemmRampMonotone(t *testing.T) {
	g := NewMI250XGCD()
	prev := units.Flops(0)
	for _, n := range []int{256, 512, 1024, 2048, 4096, 8192, 16384} {
		got := g.GemmAchieved(FP64, n)
		if got <= prev {
			t.Errorf("GEMM rate not increasing at n=%d: %v <= %v", n, got, prev)
		}
		prev = got
	}
	// Small GEMMs must be far below the asymptote (launch-bound).
	if small := g.GemmAchieved(FP64, 256); float64(small) > 0.5*float64(g.GemmAsymptote(FP64)) {
		t.Errorf("n=256 achieved %v should be well below asymptote %v", small, g.GemmAsymptote(FP64))
	}
}

func TestGemmSweep(t *testing.T) {
	g := NewMI250XGCD()
	pts := g.GemmSweep(FP16, []int{1024, 4096, 16384})
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	if pts[0].N != 1024 || pts[2].N != 16384 {
		t.Error("sweep sizes not preserved")
	}
}

func TestGemmInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n=0 should panic")
		}
	}()
	NewMI250XGCD().GemmTime(FP64, 0)
}

func TestGPUStreamPanicsWhenOverCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized STREAM arrays should panic")
		}
	}()
	NewMI250XGCD().Stream(40 * units.GB)
}

func TestGPUStreamRuns(t *testing.T) {
	rows := NewMI250XGCD().Stream(8 * units.GB)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
}

func TestStringers(t *testing.T) {
	if NewMI250XGCD().String() == "" {
		t.Error("GCD String empty")
	}
}
