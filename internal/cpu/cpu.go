// Package cpu models AMD's EPYC 7A53 "Trento" processor (§3.1.1): 64 Zen 3
// cores across eight Core Complex Dies, a custom I/O die whose PCIe lanes
// were replaced by InfinityFabric links to the GPUs, and eight channels of
// DDR4-3200.
package cpu

import (
	"fmt"

	"frontiersim/internal/memory"
	"frontiersim/internal/units"
)

// CCD is one Core Complex Die: eight Zen 3 cores sharing an L3 slice.
type CCD struct {
	// ID is the CCD index within the socket (0–7).
	ID int
	// Cores is the number of cores on the die (8).
	Cores int
	// L3 is the shared L3 capacity of the die (32 MiB).
	L3 units.Bytes
	// PairedGCD is the GCD this CCD is coupled to through the custom IOD
	// (each Trento CCD is paired 1:1 with an MI250X GCD). -1 if unpaired.
	PairedGCD int
}

// Trento is the Frontier CPU socket model.
type Trento struct {
	// CCDs are the eight core complex dies.
	CCDs []CCD
	// ClockHz is the sustained all-core clock (2.0 GHz base).
	ClockHz float64
	// FlopsPerCoreCycle is peak FP64 per core per cycle (16 for Zen 3:
	// two 256-bit FMA pipes).
	FlopsPerCoreCycle int
	// DRAM is the attached DDR4 subsystem.
	DRAM memory.DRAM
}

// NewTrento builds the EPYC 7A53 as configured in a Bard Peak node: CCD i
// paired with GCD i, NPS-4.
func NewTrento() *Trento {
	t := &Trento{
		ClockHz:           2.0e9,
		FlopsPerCoreCycle: 16,
		DRAM:              memory.TrentoDDR4(),
	}
	for i := 0; i < 8; i++ {
		t.CCDs = append(t.CCDs, CCD{ID: i, Cores: 8, L3: 32 * units.MiB, PairedGCD: i})
	}
	return t
}

// Cores returns the socket core count (64).
func (t *Trento) Cores() int {
	n := 0
	for _, c := range t.CCDs {
		n += c.Cores
	}
	return n
}

// PeakFlops returns the socket's peak FP64 rate. At 2 GHz × 64 cores ×
// 16 FLOP/cycle this is ~2 TF/s — under 1 % of the node's GPU FLOPs,
// which is the paper's point: the CPU's job is moving data.
func (t *Trento) PeakFlops() units.Flops {
	return units.Flops(float64(t.Cores()) * t.ClockHz * float64(t.FlopsPerCoreCycle))
}

// TotalL3 returns the socket-level L3 capacity (256 MiB).
func (t *Trento) TotalL3() units.Bytes {
	var b units.Bytes
	for _, c := range t.CCDs {
		b += c.L3
	}
	return b
}

// Stream runs the CPU STREAM model on this socket's DRAM configuration.
// Arrays must exceed TotalL3 for the result to be a memory measurement;
// Stream panics on cache-resident sizes to catch misconfigured
// experiments (real STREAM prints a warning; a model should refuse).
func (t *Trento) Stream(arrayBytes units.Bytes, temporal bool) []memory.StreamResult {
	if arrayBytes < 4*t.TotalL3() {
		panic(fmt.Sprintf("cpu: STREAM array %v fits in cache shadow (L3 %v); results would not measure DRAM",
			arrayBytes, t.TotalL3()))
	}
	return memory.RunCPUStream(t.DRAM, arrayBytes, temporal)
}

// String summarises the socket.
func (t *Trento) String() string {
	return fmt.Sprintf("EPYC 7A53 Trento: %d cores / %d CCDs, %s DDR4 @ %s peak, %s",
		t.Cores(), len(t.CCDs), t.DRAM.Capacity().Binary(), t.DRAM.Peak(), t.DRAM.Mode)
}
