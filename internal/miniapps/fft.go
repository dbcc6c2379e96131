package miniapps

import (
	"fmt"
	"math"
	"math/cmplx"

	"frontiersim/internal/units"
)

// FFT1D computes an in-place radix-2 decimation-in-time FFT — the kernel
// GESTS's pseudo-spectral solver calls ~N² times per 3-D transform. The
// length must be a power of two.
func FFT1D(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("miniapps: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Danielson–Lanczos butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// IFFT1D is the inverse transform (normalised).
func IFFT1D(x []complex128) error {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := FFT1D(x); err != nil {
		return err
	}
	scale := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * scale
	}
	return nil
}

// FFT3D transforms an n×n×n volume in place, dimension by dimension —
// structurally what rocFFT does per GESTS pencil between the all-to-all
// transposes.
type FFT3D struct {
	N    int
	Data []complex128
}

// NewFFT3D allocates an n³ volume (n must be a power of two).
func NewFFT3D(n int) (*FFT3D, error) {
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("miniapps: FFT3D size %d is not a power of two", n)
	}
	return &FFT3D{N: n, Data: make([]complex128, n*n*n)}, nil
}

// At returns a pointer to element (i,j,k).
func (f *FFT3D) At(i, j, k int) *complex128 { return &f.Data[(k*f.N+j)*f.N+i] }

// Transform runs the forward 3-D FFT (inverse with inv=true).
func (f *FFT3D) Transform(inv bool) error {
	n := f.N
	line := make([]complex128, n)
	apply := func(get func(t int) *complex128) error {
		for t := 0; t < n; t++ {
			line[t] = *get(t)
		}
		var err error
		if inv {
			err = IFFT1D(line)
		} else {
			err = FFT1D(line)
		}
		if err != nil {
			return err
		}
		for t := 0; t < n; t++ {
			*get(t) = line[t]
		}
		return nil
	}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			j, k := j, k
			if err := apply(func(t int) *complex128 { return f.At(t, j, k) }); err != nil {
				return err
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			i, k := i, k
			if err := apply(func(t int) *complex128 { return f.At(i, t, k) }); err != nil {
				return err
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			i, j := i, j
			if err := apply(func(t int) *complex128 { return f.At(i, j, t) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// FFT3DTraffic is the HBM traffic of a 3-D FFT executed as three
// dimension passes: each pass reads and writes the full volume once
// (complex128 = 16 B).
func FFT3DTraffic(n int) units.Bytes {
	points := float64(n) * float64(n) * float64(n)
	return units.Bytes(3 * 2 * 16 * points)
}
