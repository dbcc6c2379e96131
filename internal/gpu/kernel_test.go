package gpu

import (
	"math"
	"testing"

	"frontiersim/internal/units"
)

// The roofline ridge point: the arithmetic intensity at which a GCD
// turns from bandwidth bound to compute bound for a pipe.
func TestRidgeIntensity(t *testing.T) {
	g := NewMI250XGCD()
	ridge := func(peak units.Flops) float64 { return float64(peak) / float64(g.HBM.Peak()) }
	vector := ridge(g.VectorPeak[FP64])
	// 23.95 TF / 1.635 TB/s ≈ 14.6 FLOP/B.
	if math.Abs(vector-14.65) > 0.2 {
		t.Errorf("FP64 vector ridge = %.1f, want ~14.6", vector)
	}
	if ridge(g.MatrixPeak[FP64]) <= vector {
		t.Error("matrix ridge must sit right of the vector ridge")
	}
}

// Reference kernels spanning the roofline: a DGEMM tile (compute
// bound), a STREAM triad (bandwidth bound) and a 7-point stencil.
const tile = 8192

var (
	gemmTile = Kernel{Name: "dgemm-tile", Flops: 2 * tile * tile * tile, Bytes: 3 * tile * tile * 8,
		Precision: FP64, UsesMatrixCores: true, Efficiency: 0.71}
	triad   = Kernel{Name: "stream-triad", Flops: 2 * 256e6, Bytes: 3 * 256e6 * 8, Precision: FP64}
	stencil = Kernel{Name: "stencil-7pt", Flops: 8 * 512e6, Bytes: 2 * 512e6 * 8, Precision: FP64}
)

// computeBound reports whether KernelTime ignores the kernel's traffic:
// doubling its bytes leaves the roofline time unchanged.
func computeBound(t *testing.T, g *GCD, k Kernel) bool {
	t.Helper()
	d1, err := g.KernelTime(k)
	if err != nil {
		t.Fatal(err)
	}
	k.Bytes *= 2
	d2, err := g.KernelTime(k)
	if err != nil {
		t.Fatal(err)
	}
	return d1 == d2
}

func TestKernelClassification(t *testing.T) {
	g := NewMI250XGCD()
	if !computeBound(t, g, gemmTile) {
		t.Error("DGEMM tile must be compute bound")
	}
	if computeBound(t, g, triad) {
		t.Error("STREAM triad must be bandwidth bound")
	}
	if computeBound(t, g, stencil) {
		t.Error("7-point stencil at 0.5 FLOP/B must be bandwidth bound")
	}
}

func TestKernelTimes(t *testing.T) {
	g := NewMI250XGCD()
	rate, err := g.KernelRate(triad)
	if err != nil {
		t.Fatal(err)
	}
	// Bandwidth bound: achieved = intensity x HBM peak = 1/12 x 1.635e12
	// FLOP/s (launch overhead is negligible at this size).
	want := triad.Flops / float64(triad.Bytes) * float64(g.HBM.Peak())
	if math.Abs(float64(rate)-want)/want > 0.02 {
		t.Errorf("triad rate = %.3g, want %.3g", float64(rate), want)
	}
	gr, err := g.KernelRate(gemmTile)
	if err != nil {
		t.Fatal(err)
	}
	// Compute bound at 71% of the matrix peak: ~34 TF/s, Fig. 3's number.
	if tf := float64(gr) / 1e12; math.Abs(tf-34) > 1.5 {
		t.Errorf("gemm rate = %.1f TF/s, want ~34", tf)
	}
}

func TestKernelEdgeCases(t *testing.T) {
	g := NewMI250XGCD()
	if _, err := g.KernelTime(Kernel{Name: "bad", Flops: -1}); err == nil {
		t.Error("negative work should error")
	}
	// Zero-byte kernel has infinite intensity: compute bound by
	// definition.
	k := Kernel{Name: "regs-only", Flops: 1e9, Precision: FP32}
	if !computeBound(t, g, k) {
		t.Error("zero-traffic kernel is compute bound")
	}
	if _, err := g.KernelRate(k); err != nil {
		t.Error(err)
	}
	// Out-of-range efficiency falls back to 1.
	k2 := Kernel{Name: "eff", Flops: 1e12, Bytes: units.GB, Precision: FP64, Efficiency: 7}
	d1, _ := g.KernelTime(k2)
	k2.Efficiency = 1
	d2, _ := g.KernelTime(k2)
	if d1 != d2 {
		t.Error("invalid efficiency should behave as 1.0")
	}
}
