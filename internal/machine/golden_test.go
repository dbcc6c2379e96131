package machine

import (
	"fmt"
	"reflect"
	"testing"

	"frontiersim/internal/fabric"
	"frontiersim/internal/hpl"
	"frontiersim/internal/power"
	"frontiersim/internal/resilience"
	"frontiersim/internal/storage"
	"frontiersim/internal/sysmgmt"
	"frontiersim/internal/units"
)

// This file pins every spec derivation to literal reference copies of
// the constructors the machine-spec layer replaced. The references are
// the pre-refactor values verbatim; if a derivation drifts by a single
// bit, reflect.DeepEqual catches it.

func refFrontierFabricConfig() fabric.Config {
	return fabric.Config{
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
	}
}

func refScaledFabricConfig(g, sw, e int) fabric.Config {
	c := refFrontierFabricConfig()
	c.Name = fmt.Sprintf("scaled-dragonfly-%dx%dx%d", g, sw, e)
	c.ComputeGroups = g
	c.IOGroups = 0
	c.MgmtGroups = 0
	c.ComputeGroupSwitches = sw
	c.EndpointsPerSwitch = e
	return c
}

func refSummitClosConfig() fabric.ClosConfig {
	return fabric.ClosConfig{
		Name:               "summit-edr-fattree",
		Leaves:             256,
		EndpointsPerLeaf:   36,
		NICsPerNode:        2,
		LinkRate:           12.5 * units.GBps,
		EndpointEfficiency: 0.68,
		SwitchLatency:      300 * units.Nanosecond,
		EndpointLatency:    900 * units.Nanosecond,
	}
}

func refFrontierHPLSpec() hpl.MachineSpec {
	return hpl.MachineSpec{
		Nodes:             9472,
		GCDsPerNode:       8,
		VectorFP64PerGCD:  23.95 * units.TeraFlops,
		HBMPerGCD:         1.635 * units.TBps,
		HBMCapacityPerGCD: 64 * units.GiB,
	}
}

func refFrontierPower() power.Machine {
	return power.Machine{
		Nodes: 9472,
		NodeHPL: power.NodePower{
			CPU:    240,
			GPUs:   4 * 380,
			Memory: 45,
			NIC:    4 * 25,
			NVMe:   2 * 9,
			Misc:   125,
		},
		NodeIdle: power.NodePower{
			CPU:    90,
			GPUs:   4 * 90,
			Memory: 25,
			NIC:    4 * 15,
			NVMe:   2 * 5,
			Misc:   80,
		},
		Switches:        74*32 + 6*16,
		SwitchPower:     250,
		StorageOverhead: 450 * units.Kilowatt,
		CoolingFactor:   1.03,
	}
}

func refFrontierResilience() resilience.Model {
	return resilience.Model{Classes: []resilience.ComponentClass{
		{Name: "hbm-uncorrectable", Count: 303104, MTBF: 3.4e6 * units.Hour, Interrupting: true},
		{Name: "power-supply", Count: 74 * 64, MTBF: 9.5e4 * units.Hour, Interrupting: true},
		{Name: "ddr4-uncorrectable", Count: 75776, MTBF: 6.0e6 * units.Hour, Interrupting: true},
		{Name: "gpu", Count: 37888, MTBF: 2.2e6 * units.Hour, Interrupting: true},
		{Name: "cpu", Count: 9472, MTBF: 3.0e6 * units.Hour, Interrupting: true},
		{Name: "nic", Count: 37888, MTBF: 5.0e6 * units.Hour, Interrupting: true},
		{Name: "switch", Count: 2464, MTBF: 1.5e6 * units.Hour, Interrupting: false},
		{Name: "cable", Count: 40000, MTBF: 8.0e6 * units.Hour, Interrupting: false},
		{Name: "nvme", Count: 18944, MTBF: 8.0e6 * units.Hour, Interrupting: true},
	}}
}

func refFrontierSSU() storage.SSU {
	return storage.SSU{
		Controllers: 2,
		NICsPerCtrl: 2,
		NICRate:     25 * units.GBps,
		Flash: storage.DRAIDGroup{
			Data: 4, Parity: 2, Spares: 0, Drives: 24,
			DriveCapacity: 3.2 * units.TB,
			DriveBW:       1.95 * units.GBps,
		},
		Disk: storage.DRAIDGroup{
			Data: 8, Parity: 2, Spares: 2, Drives: 212,
			DriveCapacity: 18 * units.TB,
			DriveBW:       117 * units.MBps,
		},
	}
}

func refFrontierNodeLocal() *storage.NodeLocalStore {
	nvme := storage.NVMeDevice{
		Capacity:     1.75 * units.TB,
		SeqRead:      4 * units.GBps,
		SeqWrite:     2 * units.GBps,
		RandReadIOPS: 800e3,
	}
	return &storage.NodeLocalStore{
		Devices:         []storage.NVMeDevice{nvme, nvme},
		ReadEfficiency:  0.8875,
		WriteEfficiency: 1.05,
		IOPSEfficiency:  0.9875,
	}
}

func refFrontierOrion() *storage.Orion {
	ssu := refFrontierSSU()
	n := 225
	o := &storage.Orion{
		SSUs:                n,
		DoMLimit:            256 * units.KB,
		PFLPerformanceLimit: 8 * units.MB,
		Tiers:               map[storage.TierKind]storage.Tier{},
	}
	o.Tiers[storage.MetadataTier] = storage.Tier{
		Kind:     storage.MetadataTier,
		Capacity: 10 * units.PB,
		Read:     0.8 * units.TBps,
		Write:    0.4 * units.TBps,
		ReadEff:  0.9, WriteEff: 0.9,
	}
	o.Tiers[storage.PerformanceTier] = storage.Tier{
		Kind:     storage.PerformanceTier,
		Capacity: ssu.Flash.UsableCapacity() * units.Bytes(n),
		Read:     10 * units.TBps,
		Write:    10 * units.TBps,
		ReadEff:  1.17, WriteEff: 0.94,
	}
	o.Tiers[storage.CapacityTier] = storage.Tier{
		Kind:     storage.CapacityTier,
		Capacity: ssu.Disk.UsableCapacity() * units.Bytes(n),
		Read:     ssu.Disk.StreamBandwidth(false) * units.BytesPerSecond(n),
		Write:    ssu.Disk.StreamBandwidth(true) * units.BytesPerSecond(n),
		ReadEff:  0.90, WriteEff: 0.97,
	}
	return o
}

func refSysmgmtConfig() sysmgmt.Config {
	return sysmgmt.Config{ComputeNodes: 9472, Leaders: 21, DVSNodes: 12, SlurmCtls: 2}
}

// refPlatform mirrors the old apps.<Machine>() constructors minus the
// fabric closure (fabrics are compared separately by config).
type refPlatform struct {
	Name           string
	Year           int
	Nodes          int
	DevicesPerNode int
	FP64Dense      units.Flops
	FP32Dense      units.Flops
	FP16Dense      units.Flops
	MemBW          units.BytesPerSecond
	MemCap         units.Bytes
	GPUDirect      bool
	HostStagingBW  units.BytesPerSecond
}

func refPlatforms() map[string]refPlatform {
	return map[string]refPlatform{
		"frontier": {
			Name: "frontier", Year: 2022, Nodes: 9472, DevicesPerNode: 8,
			FP64Dense: 33.8 * units.TeraFlops, FP32Dense: 24.1 * units.TeraFlops, FP16Dense: 111.2 * units.TeraFlops,
			MemBW: 1337 * units.GBps, MemCap: 64 * units.GiB, GPUDirect: true,
		},
		"summit": {
			Name: "summit", Year: 2018, Nodes: 4608, DevicesPerNode: 6,
			FP64Dense: 6.7 * units.TeraFlops, FP32Dense: 13.5 * units.TeraFlops, FP16Dense: 95 * units.TeraFlops,
			MemBW: 790 * units.GBps, MemCap: 16 * units.GiB, GPUDirect: false, HostStagingBW: 10.5 * units.GBps,
		},
		"titan": {
			Name: "titan", Year: 2012, Nodes: 18688, DevicesPerNode: 1,
			FP64Dense: 1.1 * units.TeraFlops, FP32Dense: 2.9 * units.TeraFlops, FP16Dense: 2.9 * units.TeraFlops,
			MemBW: 180 * units.GBps, MemCap: 6 * units.GiB, GPUDirect: false, HostStagingBW: 5 * units.GBps,
		},
		"mira": {
			Name: "mira", Year: 2012, Nodes: 49152, DevicesPerNode: 1,
			FP64Dense: 0.17 * units.TeraFlops, FP32Dense: 0.17 * units.TeraFlops, FP16Dense: 0.17 * units.TeraFlops,
			MemBW: 28 * units.GBps, MemCap: 16 * units.GiB, GPUDirect: true,
		},
		"theta": {
			Name: "theta", Year: 2017, Nodes: 4392, DevicesPerNode: 1,
			FP64Dense: 1.6 * units.TeraFlops, FP32Dense: 2.2 * units.TeraFlops, FP16Dense: 2.2 * units.TeraFlops,
			MemBW: 380 * units.GBps, MemCap: 16 * units.GiB, GPUDirect: true,
		},
		"cori": {
			Name: "cori", Year: 2016, Nodes: 9688, DevicesPerNode: 1,
			FP64Dense: 1.7 * units.TeraFlops, FP32Dense: 2.4 * units.TeraFlops, FP16Dense: 2.4 * units.TeraFlops,
			MemBW: 390 * units.GBps, MemCap: 16 * units.GiB, GPUDirect: true,
		},
	}
}

// refBaselineClos mirrors the old apps clos() fabric helper.
func refBaselineClos(name string, leaves, perLeaf, nicsPerNode int, rate units.BytesPerSecond, eff float64) fabric.ClosConfig {
	return fabric.ClosConfig{
		Name:               name,
		Leaves:             leaves,
		EndpointsPerLeaf:   perLeaf,
		NICsPerNode:        nicsPerNode,
		LinkRate:           rate,
		EndpointEfficiency: eff,
		SwitchLatency:      400 * units.Nanosecond,
		EndpointLatency:    1200 * units.Nanosecond,
	}
}

func TestGoldenFrontierFabricConfig(t *testing.T) {
	got, err := Frontier().FabricConfig()
	if err != nil {
		t.Fatal(err)
	}
	if want := refFrontierFabricConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("FabricConfig drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestGoldenScaledFabricConfig(t *testing.T) {
	got, err := Scaled(6, 8, 4).FabricConfig()
	if err != nil {
		t.Fatal(err)
	}
	if want := refScaledFabricConfig(6, 8, 4); !reflect.DeepEqual(got, want) {
		t.Errorf("Scaled FabricConfig drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestGoldenSummitClosConfig(t *testing.T) {
	got, err := Summit().ClosConfig()
	if err != nil {
		t.Fatal(err)
	}
	if want := refSummitClosConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("ClosConfig drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestGoldenFrontierHPLSpec(t *testing.T) {
	got, err := Frontier().HPLSpec()
	if err != nil {
		t.Fatal(err)
	}
	if want := refFrontierHPLSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("HPLSpec drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestGoldenSummitHPLSpec(t *testing.T) {
	got, err := Summit().HPLSpec()
	if err != nil {
		t.Fatal(err)
	}
	want := hpl.MachineSpec{
		Nodes:             4608,
		GCDsPerNode:       6,
		VectorFP64PerGCD:  7.8 * units.TeraFlops,
		HBMPerGCD:         900 * units.GBps,
		HBMCapacityPerGCD: 16 * units.GiB,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Summit HPLSpec drifted:\n got %+v\nwant %+v", got, want)
	}
	// Summit's ~200 PF peak / ~149 PF Rmax band.
	if rmax := float64(got.HPLRmax(got.Nodes)) / 1e15; rmax < 120 || rmax > 160 {
		t.Errorf("summit Rmax = %.0f PF, want ~149", rmax)
	}
}

func TestGoldenFrontierPower(t *testing.T) {
	got, err := Frontier().PowerMachine()
	if err != nil {
		t.Fatal(err)
	}
	if want := refFrontierPower(); !reflect.DeepEqual(got, want) {
		t.Errorf("PowerMachine drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestGoldenFrontierResilience(t *testing.T) {
	got, err := Frontier().ResilienceModel()
	if err != nil {
		t.Fatal(err)
	}
	if want := refFrontierResilience(); !reflect.DeepEqual(got, want) {
		t.Errorf("ResilienceModel drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestGoldenFrontierStorage(t *testing.T) {
	s := Frontier()
	nl, err := s.NodeLocal()
	if err != nil {
		t.Fatal(err)
	}
	if want := refFrontierNodeLocal(); !reflect.DeepEqual(nl, want) {
		t.Errorf("NodeLocal drifted:\n got %+v\nwant %+v", nl, want)
	}
	if ssu, want := s.Storage.Orion.SSU, refFrontierSSU(); !reflect.DeepEqual(ssu, want) {
		t.Errorf("SSU drifted:\n got %+v\nwant %+v", ssu, want)
	}
	o, err := s.Orion()
	if err != nil {
		t.Fatal(err)
	}
	if want := refFrontierOrion(); !reflect.DeepEqual(o, want) {
		t.Errorf("Orion drifted:\n got %+v\nwant %+v", o, want)
	}
}

func TestGoldenFrontierMgmt(t *testing.T) {
	got, err := Frontier().MgmtConfig()
	if err != nil {
		t.Fatal(err)
	}
	if want := refSysmgmtConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("MgmtConfig drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestGoldenPlatforms(t *testing.T) {
	refs := refPlatforms()
	for _, name := range Names() {
		p, err := PlatformByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := refs[name]
		got := refPlatform{
			Name: p.Name, Year: p.Year, Nodes: p.Nodes, DevicesPerNode: p.DevicesPerNode,
			FP64Dense: p.FP64Dense, FP32Dense: p.FP32Dense, FP16Dense: p.FP16Dense,
			MemBW: p.MemBW, MemCap: p.MemCap, GPUDirect: p.GPUDirect, HostStagingBW: p.HostStagingBW,
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s platform drifted:\n got %+v\nwant %+v", name, got, want)
		}
		if _, err := p.Fabric(); err != nil {
			t.Errorf("%s: fabric build failed: %v", name, err)
		}
	}
}

func TestGoldenBaselineFabrics(t *testing.T) {
	// The comparison machines' idealised fat trees, verbatim from the
	// old apps-package closures.
	want := map[string]fabric.ClosConfig{
		"titan": refBaselineClos("titan-gemini", 584, 32, 1, 8*units.GBps, 0.55),
		"mira":  refBaselineClos("mira-5dtorus", 1024, 48, 1, 10*units.GBps, 0.6),
		"theta": refBaselineClos("theta-aries", 122, 36, 1, 10*units.GBps, 0.8),
		"cori":  refBaselineClos("cori-aries", 270, 36, 1, 10*units.GBps, 0.8),
	}
	for name, w := range want {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ClosConfig()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s baseline fabric drifted:\n got %+v\nwant %+v", name, got, w)
		}
	}
}

// TestFixturesMatchMachineSpecs closes the loop with the test fixtures
// carried by the packages below machine in the import graph: the fabric
// the spec builds equals the one the fixtures build.
func TestFixturesMatchMachineSpecs(t *testing.T) {
	sf, err := Frontier().NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fabric.NewDragonfly(refFrontierFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sf.NumSwitches != rf.NumSwitches || sf.NumEndpoints != rf.NumEndpoints {
		t.Errorf("spec fabric (%d sw, %d ep) != reference fabric (%d sw, %d ep)",
			sf.NumSwitches, sf.NumEndpoints, rf.NumSwitches, rf.NumEndpoints)
	}
	if !reflect.DeepEqual(sf.Cfg, rf.Cfg) {
		t.Error("spec fabric config differs from reference")
	}
}
