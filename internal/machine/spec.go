// Package machine is the single declarative source of truth for every
// simulated system. A Spec carries the machine's identity — topology,
// node rates, benchmark parameters, power draw, failure populations,
// storage plant, and management plane — as plain JSON-serializable data,
// and each subsystem obtains its configuration through a derivation
// method (FabricConfig, HPLSpec, PowerMachine, ResilienceModel,
// Platform, Orion, MgmtConfig, …). Cross-cutting values such as the
// compute-node count therefore flow from exactly one place: the spec.
//
// The canonical specs of the paper's systems (Frontier, Summit, Titan,
// Mira, Theta, Cori) live in specs.go; Load and Dump move specs to and
// from JSON files so what-if variants (half-bandwidth Slingshot, doubled
// HBM, scaled node counts) need no code changes.
package machine

import (
	"errors"
	"fmt"

	"frontiersim/internal/apps"
	"frontiersim/internal/fabric"
	"frontiersim/internal/hpl"
	"frontiersim/internal/job"
	"frontiersim/internal/power"
	"frontiersim/internal/resilience"
	"frontiersim/internal/storage"
	"frontiersim/internal/sysmgmt"
	"frontiersim/internal/units"
)

// ErrNotInSpec is wrapped by every error that reports a subsystem the
// machine's spec does not describe (no storage plant, no failure model,
// no scheduler, …). The machine cannot run what asked for it, which is
// the request's fault, not the simulator's: frontier-serve answers 422.
var ErrNotInSpec = errors.New("subsystem not in spec")

// NotInSpec returns an error with the formatted text that wraps
// ErrNotInSpec.
func NotInSpec(format string, args ...any) error {
	return notInSpec(fmt.Sprintf(format, args...))
}

// notInSpec keeps its caller's text and adds only the sentinel.
type notInSpec string

func (e notInSpec) Error() string { return string(e) }
func (e notInSpec) Unwrap() error { return ErrNotInSpec }

// Topology kinds.
const (
	Dragonfly = "dragonfly"
	FatTree   = "fat-tree"
)

// Topology describes the interconnect. Exactly one kind is active;
// dragonfly machines use the group fields, fat trees the leaf fields.
// Rates are bytes/second, latencies seconds (the simulator's base units).
type Topology struct {
	Kind       string `json:"kind"` // "dragonfly" or "fat-tree"
	FabricName string `json:"fabricName"`

	// Dragonfly shape (Frontier: 74+5+1 groups, 32/16 switches, 16
	// endpoints per switch).
	ComputeGroups        int `json:"computeGroups,omitempty"`
	IOGroups             int `json:"ioGroups,omitempty"`
	MgmtGroups           int `json:"mgmtGroups,omitempty"`
	ComputeGroupSwitches int `json:"computeGroupSwitches,omitempty"`
	TORGroupSwitches     int `json:"torGroupSwitches,omitempty"`
	EndpointsPerSwitch   int `json:"endpointsPerSwitch,omitempty"`

	// Global link counts between group pairs by class pair.
	ComputeComputeLinks int `json:"computeComputeLinks,omitempty"`
	ComputeIOLinks      int `json:"computeIOLinks,omitempty"`
	ComputeMgmtLinks    int `json:"computeMgmtLinks,omitempty"`
	IOIOLinks           int `json:"ioIOLinks,omitempty"`
	IOMgmtLinks         int `json:"ioMgmtLinks,omitempty"`

	// Fat-tree shape (Summit: 256 leaves of 36 endpoints).
	Leaves           int `json:"leaves,omitempty"`
	EndpointsPerLeaf int `json:"endpointsPerLeaf,omitempty"`

	// Common endpoint wiring and link physics.
	NICsPerNode        int                  `json:"nicsPerNode"`
	LinkRate           units.BytesPerSecond `json:"linkRate"`
	EndpointEfficiency float64              `json:"endpointEfficiency"`
	SwitchLatency      units.Seconds        `json:"switchLatency"`
	EndpointLatency    units.Seconds        `json:"endpointLatency"`

	// Nodes overrides the topology-derived compute-node count for
	// machines whose fabric carries more endpoints than compute nodes
	// (Cori's Aries serves service nodes too). Zero derives the count.
	Nodes int `json:"nodes,omitempty"`
}

// DerivedNodes is the compute-node count implied by the fabric shape
// alone, before any Nodes override.
func (t Topology) DerivedNodes() int {
	if t.NICsPerNode == 0 {
		return 0
	}
	switch t.Kind {
	case Dragonfly:
		return t.ComputeGroups * t.ComputeGroupSwitches * t.EndpointsPerSwitch / t.NICsPerNode
	case FatTree:
		return t.Leaves * t.EndpointsPerLeaf / t.NICsPerNode
	}
	return 0
}

// NodeSpec is the machine's compute node as the application proxies see
// it: achieved (not marketing-peak) per-device rates.
type NodeSpec struct {
	// DevicesPerNode is the accelerator count (GCDs on Frontier, GPUs
	// on Summit/Titan, the CPU itself on Mira/Theta/Cori).
	DevicesPerNode int `json:"devicesPerNode"`
	// Achieved dense throughput per device by precision.
	FP64Dense units.Flops `json:"fp64Dense"`
	FP32Dense units.Flops `json:"fp32Dense"`
	FP16Dense units.Flops `json:"fp16Dense"`
	// MemBW is the achieved STREAM-class bandwidth per device; MemCap
	// the usable memory per device.
	MemBW  units.BytesPerSecond `json:"memBW"`
	MemCap units.Bytes          `json:"memCap"`
	// GPUDirect reports whether the network can DMA device memory
	// directly; when false, transfers stage through the host at
	// HostStagingBW per node.
	GPUDirect     bool                 `json:"gpuDirect"`
	HostStagingBW units.BytesPerSecond `json:"hostStagingBW,omitempty"`
	// BardPeak marks the node as Frontier's Bard Peak blade, for which
	// the simulator carries a full component-level model (internal/node).
	BardPeak bool `json:"bardPeak,omitempty"`
}

// HPLSpec carries the TOP500 benchmark parameters; the node count is
// derived from the topology, never stored here.
type HPLSpec struct {
	GCDsPerNode       int                  `json:"gcdsPerNode"`
	VectorFP64PerGCD  units.Flops          `json:"vectorFP64PerGCD"`
	HBMPerGCD         units.BytesPerSecond `json:"hbmPerGCD"`
	HBMCapacityPerGCD units.Bytes          `json:"hbmCapacityPerGCD"`
}

// PowerSpec is the electrical model (§5.1) minus the node count, which
// flows from the topology.
type PowerSpec struct {
	NodeHPL  power.NodePower `json:"nodeHPL"`
	NodeIdle power.NodePower `json:"nodeIdle"`
	// Switches is the powered switch population. It is pinned at spec
	// construction (canonical specs derive it from their topology) and
	// deliberately not re-derived by Scaled, mirroring a test machine
	// that reuses the full plant's electrical model.
	Switches        int         `json:"switches"`
	SwitchPower     units.Watts `json:"switchPower"`
	StorageOverhead units.Watts `json:"storageOverhead"`
	CoolingFactor   float64     `json:"coolingFactor"`
}

// FailureClassSpec is one component population with an exponential
// failure model (§5.4).
type FailureClassSpec struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	MTBF  units.Seconds `json:"mtbf"`
	// Interrupting reports whether a failure interrupts the running job.
	Interrupting bool `json:"interrupting"`
}

// ResilienceSpec is the machine-wide failure population. Counts are
// explicit (they describe the installed plant, not the fabric shape), so
// scaled test machines keep full-scale failure statistics, matching the
// operations model's historical behaviour.
type ResilienceSpec struct {
	Classes []FailureClassSpec `json:"classes"`
}

// NodeLocalSpec is the per-node NVMe burst storage (§3.3).
type NodeLocalSpec struct {
	DevicesPerNode     int                  `json:"devicesPerNode"`
	DeviceCapacity     units.Bytes          `json:"deviceCapacity"`
	DeviceSeqRead      units.BytesPerSecond `json:"deviceSeqRead"`
	DeviceSeqWrite     units.BytesPerSecond `json:"deviceSeqWrite"`
	DeviceRandReadIOPS float64              `json:"deviceRandReadIOPS"`
	// Measured-over-contract efficiencies from the paper's fio runs.
	ReadEfficiency  float64 `json:"readEfficiency"`
	WriteEfficiency float64 `json:"writeEfficiency"`
	IOPSEfficiency  float64 `json:"iopsEfficiency"`
}

// OrionSpec is the center-wide file system (§3.3, Table 2). The
// performance- and capacity-tier capacities (and the capacity tier's
// theoretical bandwidth) are derived from the SSU build, never stored.
type OrionSpec struct {
	SSUs int         `json:"ssus"`
	SSU  storage.SSU `json:"ssu"`
	// Progressive File Layout thresholds.
	DoMLimit            units.Bytes `json:"domLimit"`
	PFLPerformanceLimit units.Bytes `json:"pflPerformanceLimit"`
	// Metadata tier, fully specified (flash metadata servers are a
	// separate plant from the SSUs).
	MetadataCapacity units.Bytes          `json:"metadataCapacity"`
	MetadataRead     units.BytesPerSecond `json:"metadataRead"`
	MetadataWrite    units.BytesPerSecond `json:"metadataWrite"`
	MetadataReadEff  float64              `json:"metadataReadEff"`
	MetadataWriteEff float64              `json:"metadataWriteEff"`
	// Performance (flash) tier theoretical rates plus measured ratios.
	PerformanceRead     units.BytesPerSecond `json:"performanceRead"`
	PerformanceWrite    units.BytesPerSecond `json:"performanceWrite"`
	PerformanceReadEff  float64              `json:"performanceReadEff"`
	PerformanceWriteEff float64              `json:"performanceWriteEff"`
	// Capacity (disk) tier measured ratios; theoretical rates derive
	// from the SSU's dRAID build.
	CapacityReadEff  float64 `json:"capacityReadEff"`
	CapacityWriteEff float64 `json:"capacityWriteEff"`
}

// StorageSpec groups the two I/O levels.
type StorageSpec struct {
	NodeLocal NodeLocalSpec `json:"nodeLocal"`
	Orion     *OrionSpec    `json:"orion,omitempty"`
}

// MgmtSpec sizes the HPCM management plane (§3.4.2); the compute-node
// count it serves flows from the topology.
type MgmtSpec struct {
	Leaders   int `json:"leaders"`
	DVSNodes  int `json:"dvsNodes"`
	SlurmCtls int `json:"slurmCtls"`
}

// Spec is one machine, completely described. Optional subsystems are
// nil for machines modelled at lower fidelity (the comparison baselines
// carry only a topology and node rates).
type Spec struct {
	Name string `json:"name"`
	Year int    `json:"year,omitempty"`

	Topology   Topology        `json:"topology"`
	Node       NodeSpec        `json:"node"`
	HPL        *HPLSpec        `json:"hpl,omitempty"`
	Power      *PowerSpec      `json:"power,omitempty"`
	Resilience *ResilienceSpec `json:"resilience,omitempty"`
	Storage    *StorageSpec    `json:"storage,omitempty"`
	Mgmt       *MgmtSpec       `json:"mgmt,omitempty"`
	// SoftwareStack names the programming environment the machine runs
	// (the Frontier spec says "frontier" for the CPE+ROCm stack of
	// §3.4.3). It is descriptive only: no model reads it, but it stays in
	// the spec so dumps, hashes and external specs keep their shape.
	SoftwareStack string `json:"softwareStack,omitempty"`
}

// Nodes is the machine's compute-node count — the one number every
// subsystem derivation agrees on.
func (s Spec) Nodes() int {
	if s.Topology.Nodes != 0 {
		return s.Topology.Nodes
	}
	return s.Topology.DerivedNodes()
}

// Machine-size ceilings. Validate rejects a spec beyond them before any
// subsystem sizes a table from it — the fabric's group-pair index grows
// with groups², its link list with endpoints and switches per group — so
// one inline what-if spec cannot exhaust a server's memory. Each sits
// well above every canonical machine (Frontier: 80 groups, 39,424
// endpoints, about 180k directed links).
const (
	MaxGroups    = 1 << 10
	MaxEndpoints = 1 << 20
	MaxLinks     = 1 << 22
)

// capped multiplies counts, saturating at ceiling+1 so a product of
// untrusted fields compares against its ceiling without overflowing. A
// non-positive factor yields 0.
func capped(ceiling int, factors ...int) int {
	p := 1
	for _, f := range factors {
		if f <= 0 {
			return 0
		}
		if p > ceiling/f {
			return ceiling + 1
		}
		p *= f
	}
	return p
}

// checkSize holds the topology under the machine-size ceilings.
func (t Topology) checkSize(name string) error {
	if t.Nodes > MaxEndpoints {
		return fmt.Errorf("machine %s: node-count override %d exceeds the ceiling of %d", name, t.Nodes, MaxEndpoints)
	}
	if t.Kind == FatTree {
		if capped(MaxEndpoints, t.Leaves, t.EndpointsPerLeaf) > MaxEndpoints {
			return fmt.Errorf("machine %s: leaves × endpointsPerLeaf (%d × %d) exceeds the ceiling of %d endpoints",
				name, t.Leaves, t.EndpointsPerLeaf, MaxEndpoints)
		}
		return nil
	}
	groups := capped(MaxGroups, t.ComputeGroups) + capped(MaxGroups, t.IOGroups) + capped(MaxGroups, t.MgmtGroups)
	if groups > MaxGroups {
		return fmt.Errorf("machine %s: computeGroups + ioGroups + mgmtGroups (%d + %d + %d) exceeds the ceiling of %d groups",
			name, t.ComputeGroups, t.IOGroups, t.MgmtGroups, MaxGroups)
	}
	tor := capped(MaxGroups, t.IOGroups) + capped(MaxGroups, t.MgmtGroups)
	endpoints := capped(MaxEndpoints, t.ComputeGroups, t.ComputeGroupSwitches, t.EndpointsPerSwitch) +
		capped(MaxEndpoints, tor, t.TORGroupSwitches, t.EndpointsPerSwitch)
	if endpoints > MaxEndpoints {
		return fmt.Errorf("machine %s: groups × computeGroupSwitches/torGroupSwitches × endpointsPerSwitch (%d × %d/%d × %d) exceeds the ceiling of %d endpoints",
			name, groups, t.ComputeGroupSwitches, t.TORGroupSwitches, t.EndpointsPerSwitch, MaxEndpoints)
	}
	// Injection and ejection per endpoint, full intra-group connectivity,
	// and at most the largest bundle between every ordered group pair.
	bundle := max(t.ComputeComputeLinks, t.ComputeIOLinks, t.ComputeMgmtLinks, t.IOIOLinks, t.IOMgmtLinks)
	links := 2*endpoints +
		capped(MaxLinks, t.ComputeGroups, t.ComputeGroupSwitches, t.ComputeGroupSwitches-1) +
		capped(MaxLinks, tor, t.TORGroupSwitches, t.TORGroupSwitches-1) +
		capped(MaxLinks, groups, groups-1, bundle)
	if links > MaxLinks {
		return fmt.Errorf("machine %s: switches per group and global link bundles (computeGroupSwitches %d, torGroupSwitches %d, largest bundle %d over %d groups) exceed the ceiling of %d links",
			name, t.ComputeGroupSwitches, t.TORGroupSwitches, bundle, groups, MaxLinks)
	}
	return nil
}

// Validate checks the spec for structural and numeric sanity, returning
// a descriptive error naming the offending field.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("machine: spec needs a name")
	}
	t := s.Topology
	switch t.Kind {
	case Dragonfly:
		if t.ComputeGroups < 1 {
			return fmt.Errorf("machine %s: dragonfly needs at least one compute group (got %d)", s.Name, t.ComputeGroups)
		}
		if t.ComputeGroupSwitches < 1 || t.EndpointsPerSwitch < 1 {
			return fmt.Errorf("machine %s: dragonfly needs positive switches per group and endpoints per switch (got %d, %d)",
				s.Name, t.ComputeGroupSwitches, t.EndpointsPerSwitch)
		}
		if t.IOGroups < 0 || t.MgmtGroups < 0 {
			return fmt.Errorf("machine %s: dragonfly group counts must not be negative (got io %d, mgmt %d)", s.Name, t.IOGroups, t.MgmtGroups)
		}
		if t.IOGroups+t.MgmtGroups > 0 && t.TORGroupSwitches < 1 {
			return fmt.Errorf("machine %s: dragonfly I/O and management groups need positive torGroupSwitches (got %d)", s.Name, t.TORGroupSwitches)
		}
		if min(t.ComputeComputeLinks, t.ComputeIOLinks, t.ComputeMgmtLinks, t.IOIOLinks, t.IOMgmtLinks) < 0 {
			return fmt.Errorf("machine %s: dragonfly global link counts must not be negative", s.Name)
		}
		if t.ComputeGroups > 1 && t.ComputeComputeLinks < 1 {
			return fmt.Errorf("machine %s: %d compute groups need computeComputeLinks of at least 1 (got %d), or no route joins them",
				s.Name, t.ComputeGroups, t.ComputeComputeLinks)
		}
	case FatTree:
		if t.Leaves < 1 || t.EndpointsPerLeaf < 1 {
			return fmt.Errorf("machine %s: fat tree needs positive leaves and endpoints per leaf (got %d, %d)",
				s.Name, t.Leaves, t.EndpointsPerLeaf)
		}
	case "":
		return fmt.Errorf("machine %s: topology kind is empty (want %q or %q)", s.Name, Dragonfly, FatTree)
	default:
		return fmt.Errorf("machine %s: unknown topology kind %q (want %q or %q)", s.Name, t.Kind, Dragonfly, FatTree)
	}
	if err := t.checkSize(s.Name); err != nil {
		return err
	}
	if t.NICsPerNode < 1 {
		return fmt.Errorf("machine %s: NICsPerNode must be positive (got %d)", s.Name, t.NICsPerNode)
	}
	if t.LinkRate <= 0 {
		return fmt.Errorf("machine %s: link rate must be positive (got %v)", s.Name, t.LinkRate)
	}
	if t.EndpointEfficiency <= 0 || t.EndpointEfficiency > 1 {
		return fmt.Errorf("machine %s: endpoint efficiency %v out of (0,1]", s.Name, t.EndpointEfficiency)
	}
	if t.Nodes < 0 {
		return fmt.Errorf("machine %s: node-count override must not be negative (got %d)", s.Name, t.Nodes)
	}
	if s.Nodes() < 1 {
		return fmt.Errorf("machine %s: topology yields %d compute nodes", s.Name, s.Nodes())
	}
	if n := s.Node; n.DevicesPerNode < 1 {
		return fmt.Errorf("machine %s: DevicesPerNode must be positive (got %d)", s.Name, n.DevicesPerNode)
	}
	if h := s.HPL; h != nil {
		if h.GCDsPerNode < 1 {
			return fmt.Errorf("machine %s: HPL GCDsPerNode must be positive (got %d)", s.Name, h.GCDsPerNode)
		}
		if h.VectorFP64PerGCD <= 0 || h.HBMPerGCD <= 0 || h.HBMCapacityPerGCD <= 0 {
			return fmt.Errorf("machine %s: HPL per-GCD peak, HBM bandwidth and capacity must be positive", s.Name)
		}
	}
	if p := s.Power; p != nil {
		if p.CoolingFactor < 1 {
			return fmt.Errorf("machine %s: cooling factor %v must be >= 1", s.Name, p.CoolingFactor)
		}
		if p.Switches < 0 || p.SwitchPower < 0 {
			return fmt.Errorf("machine %s: switch population and power must not be negative", s.Name)
		}
	}
	if r := s.Resilience; r != nil {
		for _, c := range r.Classes {
			if c.Name == "" {
				return fmt.Errorf("machine %s: failure class needs a name", s.Name)
			}
			if c.Count < 0 {
				return fmt.Errorf("machine %s: failure class %q count must not be negative (got %d)", s.Name, c.Name, c.Count)
			}
			if c.MTBF <= 0 {
				return fmt.Errorf("machine %s: failure class %q MTBF must be positive (got %v)", s.Name, c.Name, c.MTBF)
			}
		}
	}
	if st := s.Storage; st != nil {
		nl := st.NodeLocal
		if nl.DevicesPerNode < 1 || nl.DeviceCapacity <= 0 || nl.DeviceSeqRead <= 0 || nl.DeviceSeqWrite <= 0 {
			return fmt.Errorf("machine %s: node-local NVMe needs positive device count, capacity and rates", s.Name)
		}
		if o := st.Orion; o != nil {
			if o.SSUs < 1 {
				return fmt.Errorf("machine %s: Orion needs at least one SSU (got %d)", s.Name, o.SSUs)
			}
			if err := o.SSU.Flash.Validate(); err != nil {
				return fmt.Errorf("machine %s: storage.orion.ssu.Flash: %w", s.Name, err)
			}
			if err := o.SSU.Disk.Validate(); err != nil {
				return fmt.Errorf("machine %s: storage.orion.ssu.Disk: %w", s.Name, err)
			}
			if o.DoMLimit <= 0 || o.PFLPerformanceLimit <= o.DoMLimit {
				return fmt.Errorf("machine %s: PFL thresholds must satisfy 0 < DoM < performance limit (got %v, %v)",
					s.Name, o.DoMLimit, o.PFLPerformanceLimit)
			}
			if o.MetadataRead <= 0 || o.MetadataWrite <= 0 || o.PerformanceRead <= 0 || o.PerformanceWrite <= 0 {
				return fmt.Errorf("machine %s: Orion tier bandwidths must be positive", s.Name)
			}
		}
	}
	if m := s.Mgmt; m != nil && m.Leaders < 2 {
		return fmt.Errorf("machine %s: CTDB failover needs at least two leaders (got %d)", s.Name, m.Leaders)
	}
	return nil
}

// FabricConfig derives the dragonfly fabric configuration.
func (s Spec) FabricConfig() (fabric.Config, error) {
	if s.Topology.Kind != Dragonfly {
		return fabric.Config{}, NotInSpec("machine %s: topology is %q, not a dragonfly", s.Name, s.Topology.Kind)
	}
	t := s.Topology
	return fabric.Config{
		Name:                 t.FabricName,
		ComputeGroups:        t.ComputeGroups,
		IOGroups:             t.IOGroups,
		MgmtGroups:           t.MgmtGroups,
		ComputeGroupSwitches: t.ComputeGroupSwitches,
		TORGroupSwitches:     t.TORGroupSwitches,
		EndpointsPerSwitch:   t.EndpointsPerSwitch,
		NICsPerNode:          t.NICsPerNode,
		LinkRate:             t.LinkRate,
		EndpointEfficiency:   t.EndpointEfficiency,
		ComputeComputeLinks:  t.ComputeComputeLinks,
		ComputeIOLinks:       t.ComputeIOLinks,
		ComputeMgmtLinks:     t.ComputeMgmtLinks,
		IOIOLinks:            t.IOIOLinks,
		IOMgmtLinks:          t.IOMgmtLinks,
		SwitchLatency:        t.SwitchLatency,
		EndpointLatency:      t.EndpointLatency,
	}, nil
}

// ClosConfig derives the fat-tree fabric configuration.
func (s Spec) ClosConfig() (fabric.ClosConfig, error) {
	if s.Topology.Kind != FatTree {
		return fabric.ClosConfig{}, NotInSpec("machine %s: topology is %q, not a fat tree", s.Name, s.Topology.Kind)
	}
	t := s.Topology
	return fabric.ClosConfig{
		Name:               t.FabricName,
		Leaves:             t.Leaves,
		EndpointsPerLeaf:   t.EndpointsPerLeaf,
		NICsPerNode:        t.NICsPerNode,
		LinkRate:           t.LinkRate,
		EndpointEfficiency: t.EndpointEfficiency,
		SwitchLatency:      t.SwitchLatency,
		EndpointLatency:    t.EndpointLatency,
	}, nil
}

// NewFabric builds the machine's interconnect.
func (s Spec) NewFabric() (*fabric.Fabric, error) {
	switch s.Topology.Kind {
	case Dragonfly:
		cfg, err := s.FabricConfig()
		if err != nil {
			return nil, err
		}
		return fabric.NewDragonfly(cfg)
	case FatTree:
		cfg, err := s.ClosConfig()
		if err != nil {
			return nil, err
		}
		return fabric.NewClos(cfg)
	}
	return nil, fmt.Errorf("machine %s: unknown topology kind %q", s.Name, s.Topology.Kind)
}

// HPLSpec derives the TOP500 benchmark description; the node count
// comes from the topology.
func (s Spec) HPLSpec() (hpl.MachineSpec, error) {
	if s.HPL == nil {
		return hpl.MachineSpec{}, NotInSpec("machine %s: no HPL parameters in spec", s.Name)
	}
	return hpl.MachineSpec{
		Nodes:             s.Nodes(),
		GCDsPerNode:       s.HPL.GCDsPerNode,
		VectorFP64PerGCD:  s.HPL.VectorFP64PerGCD,
		HBMPerGCD:         s.HPL.HBMPerGCD,
		HBMCapacityPerGCD: s.HPL.HBMCapacityPerGCD,
	}, nil
}

// PowerMachine derives the system power model; the node count comes
// from the topology.
func (s Spec) PowerMachine() (power.Machine, error) {
	if s.Power == nil {
		return power.Machine{}, NotInSpec("machine %s: no power parameters in spec", s.Name)
	}
	p := s.Power
	return power.Machine{
		Nodes:           s.Nodes(),
		NodeHPL:         p.NodeHPL,
		NodeIdle:        p.NodeIdle,
		Switches:        p.Switches,
		SwitchPower:     p.SwitchPower,
		StorageOverhead: p.StorageOverhead,
		CoolingFactor:   p.CoolingFactor,
	}, nil
}

// ResilienceModel derives the machine-wide reliability model.
func (s Spec) ResilienceModel() (resilience.Model, error) {
	if s.Resilience == nil {
		return resilience.Model{}, NotInSpec("machine %s: no resilience parameters in spec", s.Name)
	}
	classes := make([]resilience.ComponentClass, len(s.Resilience.Classes))
	for i, c := range s.Resilience.Classes {
		classes[i] = resilience.ComponentClass{
			Name:         c.Name,
			Count:        c.Count,
			MTBF:         c.MTBF,
			Interrupting: c.Interrupting,
		}
	}
	return resilience.Model{Classes: classes}, nil
}

// MgmtConfig derives the HPCM sizing; the served compute-node count
// comes from the topology.
func (s Spec) MgmtConfig() (sysmgmt.Config, error) {
	if s.Mgmt == nil {
		return sysmgmt.Config{}, NotInSpec("machine %s: no management-plane parameters in spec", s.Name)
	}
	return sysmgmt.Config{
		ComputeNodes: s.Nodes(),
		Leaders:      s.Mgmt.Leaders,
		DVSNodes:     s.Mgmt.DVSNodes,
		SlurmCtls:    s.Mgmt.SlurmCtls,
	}, nil
}

// NodeLocal derives the per-node NVMe store.
func (s Spec) NodeLocal() (*storage.NodeLocalStore, error) {
	if s.Storage == nil {
		return nil, NotInSpec("machine %s: no storage parameters in spec", s.Name)
	}
	nl := s.Storage.NodeLocal
	devices := make([]storage.NVMeDevice, nl.DevicesPerNode)
	for i := range devices {
		devices[i] = storage.NVMeDevice{
			Capacity:     nl.DeviceCapacity,
			SeqRead:      nl.DeviceSeqRead,
			SeqWrite:     nl.DeviceSeqWrite,
			RandReadIOPS: nl.DeviceRandReadIOPS,
		}
	}
	return &storage.NodeLocalStore{
		Devices:         devices,
		ReadEfficiency:  nl.ReadEfficiency,
		WriteEfficiency: nl.WriteEfficiency,
		IOPSEfficiency:  nl.IOPSEfficiency,
	}, nil
}

// Orion derives the center-wide file system: tier capacities and
// theoretical disk bandwidth follow from the SSU build and count.
func (s Spec) Orion() (*storage.Orion, error) {
	if s.Storage == nil || s.Storage.Orion == nil {
		return nil, NotInSpec("machine %s: no Orion parameters in spec", s.Name)
	}
	os := s.Storage.Orion
	n := os.SSUs
	o := &storage.Orion{
		SSUs:                n,
		DoMLimit:            os.DoMLimit,
		PFLPerformanceLimit: os.PFLPerformanceLimit,
		Tiers:               map[storage.TierKind]storage.Tier{},
	}
	o.Tiers[storage.MetadataTier] = storage.Tier{
		Kind:     storage.MetadataTier,
		Capacity: os.MetadataCapacity,
		Read:     os.MetadataRead,
		Write:    os.MetadataWrite,
		ReadEff:  os.MetadataReadEff, WriteEff: os.MetadataWriteEff,
	}
	o.Tiers[storage.PerformanceTier] = storage.Tier{
		Kind:     storage.PerformanceTier,
		Capacity: os.SSU.Flash.UsableCapacity() * units.Bytes(n),
		Read:     os.PerformanceRead,
		Write:    os.PerformanceWrite,
		ReadEff:  os.PerformanceReadEff, WriteEff: os.PerformanceWriteEff,
	}
	o.Tiers[storage.CapacityTier] = storage.Tier{
		Kind:     storage.CapacityTier,
		Capacity: os.SSU.Disk.UsableCapacity() * units.Bytes(n),
		Read:     os.SSU.Disk.StreamBandwidth(false) * units.BytesPerSecond(n),
		Write:    os.SSU.Disk.StreamBandwidth(true) * units.BytesPerSecond(n),
		ReadEff:  os.CapacityReadEff, WriteEff: os.CapacityWriteEff,
	}
	return o, nil
}

// BurstBuffer derives the burst-buffer view for an n-node job on this
// machine (n = 0 means the whole machine).
func (s Spec) BurstBuffer(n int) (*storage.BurstBuffer, error) {
	local, err := s.NodeLocal()
	if err != nil {
		return nil, err
	}
	pfs, err := s.Orion()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		n = s.Nodes()
	}
	return storage.NewBurstBuffer(local, pfs, n), nil
}

// Platform derives the machine as the application proxies see it.
func (s Spec) Platform() *apps.Platform {
	p := &apps.Platform{
		Name:           s.Name,
		Year:           s.Year,
		Nodes:          s.Nodes(),
		DevicesPerNode: s.Node.DevicesPerNode,
		FP64Dense:      s.Node.FP64Dense,
		FP32Dense:      s.Node.FP32Dense,
		FP16Dense:      s.Node.FP16Dense,
		MemBW:          s.Node.MemBW,
		MemCap:         s.Node.MemCap,
		GPUDirect:      s.Node.GPUDirect,
		HostStagingBW:  s.Node.HostStagingBW,
	}
	spec := s // capture by value: the platform builds its fabric lazily
	p.SetFabricBuilder(spec.NewFabric)
	return p
}

// NodeModel derives the job layer's compute-node pricing model from the
// same NodeSpec the application proxies use.
func (s Spec) NodeModel() job.NodeModel {
	return job.NodeModel{
		Devices: s.Node.DevicesPerNode,
		FP64:    s.Node.FP64Dense,
		FP32:    s.Node.FP32Dense,
		FP16:    s.Node.FP16Dense,
		MemBW:   s.Node.MemBW,
		MemCap:  s.Node.MemCap,
	}
}

// JobEnv derives the environment phase-structured job programs are
// priced against, sharing an already-built fabric instance. Storage
// tiers are wired when the spec carries them; a spec without storage
// yields an env that prices compute and collective phases only.
func (s Spec) JobEnv(f *fabric.Fabric) (*job.Env, error) {
	env := &job.Env{Node: s.NodeModel(), Fabric: f}
	if s.Storage != nil {
		nl, err := s.NodeLocal()
		if err != nil {
			return nil, err
		}
		env.NodeLocal = nl
		if s.Storage.Orion != nil {
			if env.Orion, err = s.Orion(); err != nil {
				return nil, err
			}
		}
	}
	return env, nil
}
