// Package memory models the two memory technologies in a Frontier node —
// DDR4 attached to the Trento CPU and HBM2e attached to each MI250X GCD —
// at the level needed to reproduce the paper's STREAM results (Tables 3
// and 4): channel counts, peak and sustained bandwidth, NUMA-per-socket
// interleaving, and the write-allocate semantics that separate temporal
// from non-temporal stores.
package memory

import (
	"fmt"

	"frontiersim/internal/units"
)

// NPSMode is the EPYC NUMA-Per-Socket configuration (§3.1.1).
type NPSMode int

// Supported NPS modes.
const (
	NPS1 NPSMode = 1 // all allocations striped over all eight DIMMs
	NPS2 NPSMode = 2
	NPS4 NPSMode = 4 // allocations striped over the two DIMMs per quadrant
)

// String implements fmt.Stringer.
func (m NPSMode) String() string { return fmt.Sprintf("NPS-%d", int(m)) }

// DRAM models a DDR4 memory subsystem.
type DRAM struct {
	// Channels is the number of DDR channels (8 on Trento).
	Channels int
	// PerChannelPeak is the theoretical per-channel bandwidth
	// (25.6 GB/s for DDR4-3200).
	PerChannelPeak units.BytesPerSecond
	// CapacityPerChannel is the DIMM capacity per channel (64 GiB).
	CapacityPerChannel units.Bytes
	// Efficiency is the fraction of peak achievable with non-temporal
	// streams in the best NPS mode. Calibrated to the paper's 179 GB/s
	// out of 205 GiB/s (~0.815 of the binary peak, 0.874 of 204.8 GB/s).
	Efficiency float64
	// NPS1Factor is the aggregate-bandwidth derating when the socket is
	// run in NPS-1: full-socket interleaving lengthens average access
	// distance across the IOD. The paper measures ~125 GB/s vs 180 GB/s,
	// a factor of ~0.70.
	NPS1Factor float64
	// Mode is the configured NUMA-per-socket mode (NPS-4 on Frontier).
	Mode NPSMode
}

// TrentoDDR4 returns the DDR4 configuration of the EPYC 7A53 "Trento"
// socket as deployed in Frontier: eight 64 GiB DDR4-3200 DIMMs in NPS-4.
func TrentoDDR4() DRAM {
	return DRAM{
		Channels:           8,
		PerChannelPeak:     25.6 * units.GBps,
		CapacityPerChannel: 64 * units.GiB,
		Efficiency:         0.874,
		NPS1Factor:         0.70,
		Mode:               NPS4,
	}
}

// Capacity returns total DRAM capacity (512 GiB on Trento).
func (d DRAM) Capacity() units.Bytes {
	return d.CapacityPerChannel * units.Bytes(d.Channels)
}

// Peak returns theoretical peak bandwidth across all channels.
func (d DRAM) Peak() units.BytesPerSecond {
	return d.PerChannelPeak * units.BytesPerSecond(d.Channels)
}

// Sustained returns the achievable streaming bandwidth with non-temporal
// accesses in the configured NPS mode.
func (d DRAM) Sustained() units.BytesPerSecond {
	bw := units.BytesPerSecond(float64(d.Peak()) * d.Efficiency)
	if d.Mode == NPS1 {
		bw = units.BytesPerSecond(float64(bw) * d.NPS1Factor)
	}
	return bw
}

// HBM models the high-bandwidth memory attached to one GCD.
type HBM struct {
	// Stacks is the number of HBM2e stacks (4 per GCD).
	Stacks int
	// PerStackPeak is per-stack bandwidth (1.635 TB/s ÷ 4 per GCD).
	PerStackPeak units.BytesPerSecond
	// CapacityPerStack is per-stack capacity (16 GiB).
	CapacityPerStack units.Bytes
}

// MI250XHBM returns the HBM2e configuration of a single MI250X GCD:
// four stacks, 64 GB, 1.635 TB/s aggregate peak.
func MI250XHBM() HBM {
	return HBM{
		Stacks:           4,
		PerStackPeak:     1.635 * units.TBps / 4,
		CapacityPerStack: 16 * units.GiB,
	}
}

// Capacity returns total HBM capacity for the GCD.
func (h HBM) Capacity() units.Bytes {
	return h.CapacityPerStack * units.Bytes(h.Stacks)
}

// Peak returns aggregate peak HBM bandwidth for the GCD.
func (h HBM) Peak() units.BytesPerSecond {
	return h.PerStackPeak * units.BytesPerSecond(h.Stacks)
}
