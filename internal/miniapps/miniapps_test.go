package miniapps

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"frontiersim/internal/gpu"
)

// The stencil solver must track the analytic decay of its Fourier mode.
func TestHeat3DMatchesAnalyticDecay(t *testing.T) {
	h, err := NewHeat3D(16)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 50; s++ {
		h.Step()
	}
	got := h.Amplitude()
	want := h.ExpectedAmplitude()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("amplitude after %d steps = %.12f, analytic %.12f", h.Steps, got, want)
	}
	if got >= 1 || got <= 0 {
		t.Errorf("mode should decay within (0,1): %v", got)
	}
}

func TestHeat3DValidation(t *testing.T) {
	if _, err := NewHeat3D(2); err == nil {
		t.Error("tiny grid should error")
	}
}

// The stencil's roofline prediction: bandwidth bound, step time =
// traffic / HBM rate. A 512^3 FP64 grid (2 GiB working set): ~1.3 ms.
func TestHeat3DRooflinePrediction(t *testing.T) {
	h, _ := NewHeat3D(8) // real run small; prediction for a big grid
	h.N = 512
	g := gpu.NewMI250XGCD()
	d, err := h.PredictStepTime(g)
	if err != nil {
		t.Fatal(err)
	}
	points := 512.0 * 512 * 512
	want := 16 * points / 1.635e12
	if math.Abs(float64(d)-want)/want > 0.1 {
		t.Errorf("step prediction %v, want ~%.3g s (bandwidth bound)", d, want)
	}
}

// FFT correctness: a pure tone transforms to a single spike.
func TestFFT1DPureTone(t *testing.T) {
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*5*float64(i)/float64(n)))
	}
	if err := FFT1D(x); err != nil {
		t.Fatal(err)
	}
	for k := range x {
		mag := cmplx.Abs(x[k])
		if k == 5 {
			if math.Abs(mag-float64(n)) > 1e-9 {
				t.Errorf("bin 5 magnitude = %v, want %d", mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d should be empty, got %v", k, mag)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 128)
	orig := make([]complex128, len(x))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = x[i]
	}
	if err := FFT1D(x); err != nil {
		t.Fatal(err)
	}
	if err := IFFT1D(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, x[i], orig[i])
		}
	}
	if err := FFT1D(make([]complex128, 3)); err == nil {
		t.Error("non-power-of-two should error")
	}
}

// Parseval's theorem on the 3-D transform.
func TestFFT3DParseval(t *testing.T) {
	f, err := NewFFT3D(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var timeEnergy float64
	for i := range f.Data {
		f.Data[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(f.Data[i] * cmplx.Conj(f.Data[i]))
	}
	if err := f.Transform(false); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for i := range f.Data {
		freqEnergy += real(f.Data[i] * cmplx.Conj(f.Data[i]))
	}
	n3 := float64(8 * 8 * 8)
	if math.Abs(freqEnergy/n3-timeEnergy)/timeEnergy > 1e-10 {
		t.Errorf("Parseval violated: time %v vs freq/N %v", timeEnergy, freqEnergy/n3)
	}
	// And back.
	if err := f.Transform(true); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFFT3D(6); err == nil {
		t.Error("non-power-of-two volume should error")
	}
}

// The GESTS proxy assumes ~8 bandwidth-bound volume passes per step; the
// real 3-D FFT's measured traffic is 6 volume passes (3 dims x R+W),
// consistent to within the proxy's slack.
func TestFFTTrafficMatchesGESTSAssumption(t *testing.T) {
	n := 1024
	points := float64(n) * float64(n) * float64(n)
	passes := float64(FFT3DTraffic(n)) / (16 * points)
	if passes != 6 {
		t.Errorf("FFT traffic = %.1f volume passes, want 6 (3 dims x read+write)", passes)
	}
	// With complex64 data (GESTS runs FP32) the per-step forward+inverse
	// pair costs 2x6 passes of 8 B = 96 B/point vs the proxy's 8 passes
	// of 8 B = 64 B/point on the 8 B working array — same order, and
	// both far below the all-to-all term that dominates the step.
}

// Energy conservation of the leapfrog integrator.
func TestNBodyEnergyConservation(t *testing.T) {
	b, err := NewNBody(64, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	e0 := b.Energy()
	for s := 0; s < 200; s++ {
		b.Step()
	}
	e1 := b.Energy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 1e-3 {
		t.Errorf("energy drift %.2e over %d steps; leapfrog should hold ~1e-4", drift, b.Steps)
	}
	if _, err := NewNBody(1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("one body should error")
	}
}

// computeBound reports whether k's roofline time on g ignores its
// traffic: doubling the bytes leaves KernelTime unchanged.
func computeBound(t *testing.T, g *gpu.GCD, k gpu.Kernel) bool {
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

// The N-body force sweep must be compute bound on the GPU (HACC's whole
// design bet) and its roofline time must follow N².
func TestNBodyRoofline(t *testing.T) {
	g := gpu.NewMI250XGCD()
	b, _ := NewNBody(2, rand.New(rand.NewSource(4)))
	b.N = 1 << 20 // predict at HACC-like particle counts per GCD
	if !computeBound(t, g, b.Kernel()) {
		t.Error("direct N-body must be compute bound")
	}
	t1, err := b.PredictForceTime(g)
	if err != nil {
		t.Fatal(err)
	}
	b.N = 2 << 20
	t2, _ := b.PredictForceTime(g)
	ratio := float64(t2) / float64(t1)
	if ratio < 3.8 || ratio > 4.2 {
		t.Errorf("doubling N should ~4x the sweep: got %.2fx", ratio)
	}
}

// The blocked GEMM must agree with the naive reference exactly (same
// operation order per element up to float assoc within tolerance).
func TestGEMMBlockedMatchesNaive(t *testing.T) {
	g, err := NewGEMM(64, 16, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	naive := g.Naive()
	blocked := g.Blocked()
	for i := range naive {
		if math.Abs(naive[i]-blocked[i]) > 1e-9*math.Max(1, math.Abs(naive[i])) {
			t.Fatalf("blocked diverges at %d: %v vs %v", i, blocked[i], naive[i])
		}
	}
	if _, err := NewGEMM(64, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Error("block must divide n")
	}
}

// The GEMM kernel's roofline prediction at n=16384 must land on
// Figure 3's 33.8 TF/s — the same number the gpu package's CoralGemm
// model produces independently.
func TestGEMMRooflineMatchesFig3(t *testing.T) {
	g := gpu.NewMI250XGCD()
	k := GEMMKernel(16384)
	if !computeBound(t, g, k) {
		t.Fatal("a 16k DGEMM must be compute bound")
	}
	rate, err := g.KernelRate(k)
	if err != nil {
		t.Fatal(err)
	}
	tf := float64(rate) / 1e12
	if math.Abs(tf-33.8)/33.8 > 0.02 {
		t.Errorf("roofline DGEMM = %.1f TF/s, want 33.8 (Fig. 3)", tf)
	}
	// Cross-model: the CoralGemm sweep model agrees.
	coral := float64(g.GemmAchieved(gpu.FP64, 16384)) / 1e12
	if math.Abs(tf-coral)/coral > 0.03 {
		t.Errorf("roofline %v vs CoralGemm model %v: models disagree", tf, coral)
	}
}
