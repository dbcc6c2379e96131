package storage

import (
	"fmt"
	"math"

	"frontiersim/internal/units"
)

// TierKind names Orion's three tiers.
type TierKind int

// Orion tiers.
const (
	MetadataTier TierKind = iota
	PerformanceTier
	CapacityTier
)

// String implements fmt.Stringer.
func (t TierKind) String() string {
	switch t {
	case MetadataTier:
		return "metadata"
	case PerformanceTier:
		return "performance"
	case CapacityTier:
		return "capacity"
	}
	return fmt.Sprintf("TierKind(%d)", int(t))
}

// Tier is one Orion storage tier (Table 2 rows).
type Tier struct {
	Kind     TierKind
	Capacity units.Bytes
	// Read and Write are theoretical streaming bandwidths.
	Read, Write units.BytesPerSecond
	// ReadEff and WriteEff convert theoretical to measured.
	ReadEff, WriteEff float64
}

// MeasuredRead is the achieved streaming read rate.
func (t Tier) MeasuredRead() units.BytesPerSecond {
	return units.BytesPerSecond(float64(t.Read) * t.ReadEff)
}

// MeasuredWrite is the achieved streaming write rate.
func (t Tier) MeasuredWrite() units.BytesPerSecond {
	return units.BytesPerSecond(float64(t.Write) * t.WriteEff)
}

// SSU is one Scalable Storage Unit: two controllers with two Cassini
// NICs each, 24 NVMe drives and 212 hard drives in distinct dRAID sets.
type SSU struct {
	Controllers int
	NICsPerCtrl int
	NICRate     units.BytesPerSecond
	Flash       DRAIDGroup
	Disk        DRAIDGroup
}

// Orion is the center-wide Lustre parallel file system: 225 SSUs plus
// flash metadata servers, aggregated into one POSIX namespace with a
// Progressive File Layout.
type Orion struct {
	SSUs  int
	Tiers map[TierKind]Tier
	// DoMLimit is the Data-on-Metadata threshold: the first 256 KB of
	// every file lands on the flash metadata servers.
	DoMLimit units.Bytes
	// PFLPerformanceLimit: bytes past DoMLimit up to this offset land
	// in the performance (flash) tier; the rest in the capacity tier.
	PFLPerformanceLimit units.Bytes
}

// SplitFile applies the PFL layout to a file of the given size and
// returns how many bytes land in each tier.
func (o *Orion) SplitFile(size units.Bytes) (dom, perf, capTier units.Bytes) {
	if size <= 0 {
		return 0, 0, 0
	}
	dom = size
	if dom > o.DoMLimit {
		dom = o.DoMLimit
	}
	rest := size - dom
	if rest <= 0 {
		return dom, 0, 0
	}
	perf = rest
	if size > o.PFLPerformanceLimit {
		perf = o.PFLPerformanceLimit - o.DoMLimit
		capTier = size - o.PFLPerformanceLimit
	}
	return dom, perf, capTier
}

// StreamBandwidth reports the achieved aggregate rate for a parallel
// workload of files of the given size: files within the flash tier run
// at flash speed; large files are dominated by the capacity tier.
func (o *Orion) StreamBandwidth(fileSize units.Bytes, write bool) units.BytesPerSecond {
	dom, perf, capT := o.SplitFile(fileSize)
	total := float64(dom + perf + capT)
	if total == 0 {
		return 0
	}
	rate := func(t Tier) float64 {
		if write {
			return float64(t.MeasuredWrite())
		}
		return float64(t.MeasuredRead())
	}
	// The tiers serve their byte classes concurrently (separate device
	// sets); the stream completes when the slowest class finishes.
	tTime := math.Max(float64(dom)/rate(o.Tiers[MetadataTier]),
		math.Max(float64(perf)/rate(o.Tiers[PerformanceTier]),
			float64(capT)/rate(o.Tiers[CapacityTier])))
	return units.BytesPerSecond(total / tTime)
}

// IngestTime reports how long Orion needs to absorb a burst of the given
// size written as large files (a full-machine checkpoint). The paper:
// ~700 TiB (15% of HBM) in ~180 s.
func (o *Orion) IngestTime(bytes units.Bytes) units.Seconds {
	return units.TimeToMove(bytes, o.StreamBandwidth(1*units.TB, true))
}

// String summarises the file system.
func (o *Orion) String() string {
	return fmt.Sprintf("orion: %d SSUs, %s flash + %s disk, PFL %v/%v",
		o.SSUs, o.Tiers[PerformanceTier].Capacity, o.Tiers[CapacityTier].Capacity,
		o.DoMLimit, o.PFLPerformanceLimit)
}
