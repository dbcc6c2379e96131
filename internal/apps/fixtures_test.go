package apps

import (
	"fmt"

	"frontiersim/internal/fabric"
	"frontiersim/internal/units"
)

// Test fixtures. Production code obtains platforms from internal/machine
// (which imports this package); the golden test in internal/machine pins
// the derived platforms to these values.

// clos is a helper for baseline fabrics.
func clos(name string, leaves, perLeaf, nicsPerNode int, rate units.BytesPerSecond, eff float64) func() (*fabric.Fabric, error) {
	return func() (*fabric.Fabric, error) {
		return fabric.NewClos(fabric.ClosConfig{
			Name:               name,
			Leaves:             leaves,
			EndpointsPerLeaf:   perLeaf,
			NICsPerNode:        nicsPerNode,
			LinkRate:           rate,
			EndpointEfficiency: eff,
			SwitchLatency:      400 * units.Nanosecond,
			EndpointLatency:    1200 * units.Nanosecond,
		})
	}
}

// Frontier returns the target platform: achieved per-GCD rates from the
// paper's own micro-benchmarks (Fig. 3 GEMM, Table 4 STREAM).
func Frontier() *Platform {
	p := &Platform{
		Name:           "frontier",
		Year:           2022,
		Nodes:          9472,
		DevicesPerNode: 8,
		FP64Dense:      33.8 * units.TeraFlops,
		FP32Dense:      24.1 * units.TeraFlops,
		FP16Dense:      111.2 * units.TeraFlops,
		MemBW:          1337 * units.GBps,
		MemCap:         64 * units.GiB,
		GPUDirect:      true,
	}
	p.SetFabricBuilder(func() (*fabric.Fabric, error) {
		return fabric.NewDragonfly(fabric.Config{
			Name:                 "frontier-slingshot11",
			ComputeGroups:        74,
			IOGroups:             5,
			MgmtGroups:           1,
			ComputeGroupSwitches: 32,
			TORGroupSwitches:     16,
			EndpointsPerSwitch:   16,
			NICsPerNode:          4,
			LinkRate:             25 * units.GBps,
			EndpointEfficiency:   0.70,
			ComputeComputeLinks:  4,
			ComputeIOLinks:       2,
			ComputeMgmtLinks:     2,
			IOIOLinks:            10,
			IOMgmtLinks:          6,
			SwitchLatency:        200 * units.Nanosecond,
			EndpointLatency:      650 * units.Nanosecond,
		})
	})
	return p
}

// Summit is the CAAR baseline: 4,608 nodes of 6 V100s on dual-rail EDR.
func Summit() *Platform {
	p := &Platform{
		Name:           "summit",
		Year:           2018,
		Nodes:          4608,
		DevicesPerNode: 6,
		FP64Dense:      6.7 * units.TeraFlops,
		FP32Dense:      13.5 * units.TeraFlops,
		FP16Dense:      95 * units.TeraFlops,
		MemBW:          790 * units.GBps,
		MemCap:         16 * units.GiB,
		GPUDirect:      false,
		HostStagingBW:  10.5 * units.GBps,
	}
	p.SetFabricBuilder(func() (*fabric.Fabric, error) {
		return fabric.NewClos(fabric.ClosConfig{
			Name:               "summit-edr-fattree",
			Leaves:             256,
			EndpointsPerLeaf:   36,
			NICsPerNode:        2,
			LinkRate:           12.5 * units.GBps,
			EndpointEfficiency: 0.68,
			SwitchLatency:      300 * units.Nanosecond,
			EndpointLatency:    900 * units.Nanosecond,
		})
	})
	return p
}

// Titan: 18,688 nodes, one K20X each (ExaSMR/WDMApp baseline).
func Titan() *Platform {
	p := &Platform{
		Name:           "titan",
		Year:           2012,
		Nodes:          18688,
		DevicesPerNode: 1,
		FP64Dense:      1.1 * units.TeraFlops,
		FP32Dense:      2.9 * units.TeraFlops,
		FP16Dense:      2.9 * units.TeraFlops,
		MemBW:          180 * units.GBps,
		MemCap:         6 * units.GiB,
		GPUDirect:      false,
		HostStagingBW:  5 * units.GBps,
	}
	p.SetFabricBuilder(clos("titan-gemini", 584, 32, 1, 8*units.GBps, 0.55))
	return p
}

// Mira: 49,152 BG/Q nodes (EXAALT baseline).
func Mira() *Platform {
	p := &Platform{
		Name:           "mira",
		Year:           2012,
		Nodes:          49152,
		DevicesPerNode: 1,
		FP64Dense:      0.17 * units.TeraFlops,
		FP32Dense:      0.17 * units.TeraFlops,
		FP16Dense:      0.17 * units.TeraFlops,
		MemBW:          28 * units.GBps,
		MemCap:         16 * units.GiB,
		GPUDirect:      true,
	}
	p.SetFabricBuilder(clos("mira-5dtorus", 1024, 48, 1, 10*units.GBps, 0.6))
	return p
}

// Theta: 4,392 KNL nodes (ExaSky baseline).
func Theta() *Platform {
	p := &Platform{
		Name:           "theta",
		Year:           2017,
		Nodes:          4392,
		DevicesPerNode: 1,
		FP64Dense:      1.6 * units.TeraFlops,
		FP32Dense:      2.2 * units.TeraFlops,
		FP16Dense:      2.2 * units.TeraFlops,
		MemBW:          380 * units.GBps,
		MemCap:         16 * units.GiB,
		GPUDirect:      true,
	}
	p.SetFabricBuilder(clos("theta-aries", 122, 36, 1, 10*units.GBps, 0.8))
	return p
}

// Cori: 9,688 KNL nodes (WarpX baseline).
func Cori() *Platform {
	p := &Platform{
		Name:           "cori",
		Year:           2016,
		Nodes:          9688,
		DevicesPerNode: 1,
		FP64Dense:      1.7 * units.TeraFlops,
		FP32Dense:      2.4 * units.TeraFlops,
		FP16Dense:      2.4 * units.TeraFlops,
		MemBW:          390 * units.GBps,
		MemCap:         16 * units.GiB,
		GPUDirect:      true,
	}
	p.SetFabricBuilder(clos("cori-aries", 270, 36, 1, 10*units.GBps, 0.8))
	return p
}

// ByName resolves a fixture platform by its name.
func ByName(name string) (*Platform, error) {
	switch name {
	case "frontier":
		return Frontier(), nil
	case "summit":
		return Summit(), nil
	case "titan":
		return Titan(), nil
	case "mira":
		return Mira(), nil
	case "theta":
		return Theta(), nil
	case "cori":
		return Cori(), nil
	}
	return nil, fmt.Errorf("apps: unknown platform %q", name)
}

// allApps returns every application proxy, CAAR then ECP.
func allApps() []App { return append(CAARApps(), ECPApps()...) }
