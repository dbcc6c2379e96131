package storage

import (
	"fmt"

	"frontiersim/internal/units"
)

// DRAIDGroup models one ZFS dRAID redundancy group inside an SSU:
// declustered RAID with distributed spares, the layout Orion uses for
// both its NVMe and hard-disk sets.
type DRAIDGroup struct {
	// Data and Parity are the stripe geometry (e.g. 8d:2p).
	Data, Parity int
	// Spares are distributed spare drives.
	Spares int
	// Drives is the total physical drive count in the group.
	Drives int
	// DriveCapacity is per-drive capacity.
	DriveCapacity units.Bytes
	// DriveBW is per-drive sustained streaming bandwidth.
	DriveBW units.BytesPerSecond
}

// Validate checks the geometry fits the drive count.
func (g DRAIDGroup) Validate() error {
	if g.Data < 1 || g.Parity < 0 || g.Spares < 0 {
		return fmt.Errorf("storage: invalid dRAID geometry %dd:%dp:%ds", g.Data, g.Parity, g.Spares)
	}
	if g.Data+g.Parity > g.Drives-g.Spares {
		return fmt.Errorf("storage: stripe width %d exceeds %d non-spare drives",
			g.Data+g.Parity, g.Drives-g.Spares)
	}
	return nil
}

// Efficiency is the usable fraction of raw capacity.
func (g DRAIDGroup) Efficiency() float64 {
	return float64(g.Data) / float64(g.Data+g.Parity) * float64(g.Drives-g.Spares) / float64(g.Drives)
}

// UsableCapacity is the post-parity, post-spare capacity.
func (g DRAIDGroup) UsableCapacity() units.Bytes {
	return units.Bytes(float64(g.Drives) * float64(g.DriveCapacity) * g.Efficiency())
}

// StreamBandwidth is the aggregate streaming rate of the group; parity
// overhead costs writes but not reads.
func (g DRAIDGroup) StreamBandwidth(write bool) units.BytesPerSecond {
	bw := float64(g.Drives-g.Spares) * float64(g.DriveBW)
	if write {
		bw *= float64(g.Data) / float64(g.Data+g.Parity)
	}
	return units.BytesPerSecond(bw)
}
