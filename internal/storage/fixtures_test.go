package storage

import "frontiersim/internal/units"

// Test fixtures. Production code derives these from internal/machine
// (which imports this package); the golden test in internal/machine
// pins the derived stores to these values.

// frontierNVMe is one of the two node-local M.2 devices.
func frontierNVMe() NVMeDevice {
	return NVMeDevice{
		Capacity:     1.75 * units.TB,
		SeqRead:      4 * units.GBps,
		SeqWrite:     2 * units.GBps,
		RandReadIOPS: 800e3,
	}
}

// NewNodeLocalStore returns the Frontier node-local configuration.
func NewNodeLocalStore() *NodeLocalStore {
	return &NodeLocalStore{
		Devices:         []NVMeDevice{frontierNVMe(), frontierNVMe()},
		ReadEfficiency:  0.8875,
		WriteEfficiency: 1.05,
		IOPSEfficiency:  0.9875,
	}
}

// FrontierSSU returns the Orion SSU as deployed.
func FrontierSSU() SSU {
	return SSU{
		Controllers: 2,
		NICsPerCtrl: 2,
		NICRate:     25 * units.GBps,
		Flash: DRAIDGroup{
			Data: 4, Parity: 2, Spares: 0, Drives: 24,
			DriveCapacity: 3.2 * units.TB,
			DriveBW:       1.95 * units.GBps,
		},
		Disk: DRAIDGroup{
			Data: 8, Parity: 2, Spares: 2, Drives: 212,
			DriveCapacity: 18 * units.TB,
			DriveBW:       117 * units.MBps,
		},
	}
}

// NewOrion builds Orion with Table 2's capacities and bandwidths.
func NewOrion() *Orion {
	ssu := FrontierSSU()
	n := 225
	o := &Orion{
		SSUs:                n,
		DoMLimit:            256 * units.KB,
		PFLPerformanceLimit: 8 * units.MB,
		Tiers:               map[TierKind]Tier{},
	}
	o.Tiers[MetadataTier] = Tier{
		Kind:     MetadataTier,
		Capacity: 10 * units.PB,
		Read:     0.8 * units.TBps,
		Write:    0.4 * units.TBps,
		ReadEff:  0.9, WriteEff: 0.9,
	}
	o.Tiers[PerformanceTier] = Tier{
		Kind:     PerformanceTier,
		Capacity: ssu.Flash.UsableCapacity() * units.Bytes(n),
		Read:     10 * units.TBps,
		Write:    10 * units.TBps,
		ReadEff:  1.17, WriteEff: 0.94,
	}
	o.Tiers[CapacityTier] = Tier{
		Kind:     CapacityTier,
		Capacity: ssu.Disk.UsableCapacity() * units.Bytes(n),
		Read:     ssu.Disk.StreamBandwidth(false) * units.BytesPerSecond(n),
		Write:    ssu.Disk.StreamBandwidth(true) * units.BytesPerSecond(n),
		ReadEff:  0.90, WriteEff: 0.97,
	}
	return o
}

// newTestBurstBuffer is the Frontier burst-buffer view for an n-node job.
func newTestBurstBuffer(n int) *BurstBuffer {
	return NewBurstBuffer(NewNodeLocalStore(), NewOrion(), n)
}
