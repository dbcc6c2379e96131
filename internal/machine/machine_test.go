package machine

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"frontiersim/internal/units"
)

// Satellite 1: the compute-node count must agree across every subsystem
// derivation — the whole point of the single-source-of-truth layer.
func TestNodeCountConsistency(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want int
	}{
		{"frontier", Frontier(), 9472},
		{"scaled-6x8x4", Scaled(6, 8, 4), 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.spec
			if got := s.Nodes(); got != tc.want {
				t.Fatalf("Nodes() = %d, want %d", got, tc.want)
			}
			fc, err := s.FabricConfig()
			if err != nil {
				t.Fatal(err)
			}
			if got := fc.ComputeNodes(); got != tc.want {
				t.Errorf("fabric ComputeNodes = %d, want %d", got, tc.want)
			}
			pw, err := s.PowerMachine()
			if err != nil {
				t.Fatal(err)
			}
			if pw.Nodes != tc.want {
				t.Errorf("power Nodes = %d, want %d", pw.Nodes, tc.want)
			}
			hs, err := s.HPLSpec()
			if err != nil {
				t.Fatal(err)
			}
			if hs.Nodes != tc.want {
				t.Errorf("HPL Nodes = %d, want %d", hs.Nodes, tc.want)
			}
			mc, err := s.MgmtConfig()
			if err != nil {
				t.Fatal(err)
			}
			if mc.ComputeNodes != tc.want {
				t.Errorf("HPCM ComputeNodes = %d, want %d", mc.ComputeNodes, tc.want)
			}
			if p := s.Platform(); p.Nodes != tc.want {
				t.Errorf("platform Nodes = %d, want %d", p.Nodes, tc.want)
			}
		})
	}
}

// Satellite 2: Dump → Load round-trips every built-in spec exactly
// (float64 survives JSON encoding bit-for-bit).
func TestDumpLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Dump(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: dump/load round trip drifted:\n got %+v\nwant %+v", name, got, s)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, []byte(`{"name":"x","topolgy":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("typoed field should be rejected")
	}
}

func TestResolve(t *testing.T) {
	s, err := Resolve("frontier")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "frontier" {
		t.Errorf("Resolve(frontier).Name = %q", s.Name)
	}
	if _, err := Resolve("aurora"); err == nil || !strings.Contains(err.Error(), "aurora") {
		t.Errorf("unknown name should error descriptively, got %v", err)
	}
	if _, err := Resolve("/no/such/file.json"); err == nil {
		t.Error("missing file should error")
	}
	// Resolve falls through to Load for path-looking arguments.
	b, err := Dump(Summit())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "variant.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Summit()) {
		t.Error("Resolve(path) should load the spec")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("elcapitan"); err == nil || !strings.Contains(err.Error(), "elcapitan") {
		t.Errorf("want descriptive unknown-machine error, got %v", err)
	}
	if len(Names()) != 6 {
		t.Errorf("built-ins = %d, want 6", len(Names()))
	}
}

// Satellite 4: malformed specs must return descriptive errors, never
// panic, and name the machine plus the offending field.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		keyword string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "name"},
		{"unknown topology", func(s *Spec) { s.Topology.Kind = "torus" }, "torus"},
		{"empty topology", func(s *Spec) { s.Topology.Kind = "" }, "kind"},
		{"negative groups", func(s *Spec) { s.Topology.ComputeGroups = -3 }, "compute group"},
		{"zero NICs", func(s *Spec) { s.Topology.NICsPerNode = 0 }, "NICsPerNode"},
		{"negative NICs", func(s *Spec) { s.Topology.NICsPerNode = -1 }, "NICsPerNode"},
		{"zero link rate", func(s *Spec) { s.Topology.LinkRate = 0 }, "link rate"},
		{"negative link rate", func(s *Spec) { s.Topology.LinkRate = -units.GBps }, "link rate"},
		{"efficiency above one", func(s *Spec) { s.Topology.EndpointEfficiency = 1.5 }, "efficiency"},
		{"zero efficiency", func(s *Spec) { s.Topology.EndpointEfficiency = 0 }, "efficiency"},
		{"negative node override", func(s *Spec) { s.Topology.Nodes = -7 }, "override"},
		{"zero devices", func(s *Spec) { s.Node.DevicesPerNode = 0 }, "DevicesPerNode"},
		{"zero HPL GCDs", func(s *Spec) { s.HPL.GCDsPerNode = 0 }, "GCDsPerNode"},
		{"zero HPL bandwidth", func(s *Spec) { s.HPL.HBMPerGCD = 0 }, "HPL"},
		{"cooling below one", func(s *Spec) { s.Power.CoolingFactor = 0.5 }, "cooling"},
		{"negative switches", func(s *Spec) { s.Power.Switches = -1 }, "switch"},
		{"negative class count", func(s *Spec) { s.Resilience.Classes[0].Count = -5 }, "count"},
		{"zero class MTBF", func(s *Spec) { s.Resilience.Classes[0].MTBF = 0 }, "MTBF"},
		{"nameless class", func(s *Spec) { s.Resilience.Classes[0].Name = "" }, "name"},
		{"zero NVMe devices", func(s *Spec) { s.Storage.NodeLocal.DevicesPerNode = 0 }, "node-local"},
		{"zero SSUs", func(s *Spec) { s.Storage.Orion.SSUs = 0 }, "SSU"},
		{"inverted PFL", func(s *Spec) { s.Storage.Orion.PFLPerformanceLimit = 1 }, "PFL"},
		{"zero metadata rate", func(s *Spec) { s.Storage.Orion.MetadataRead = 0 }, "bandwidth"},
		// A dRAID geometry with no data drives prices NaN capacities and
		// rates; a stripe wider than the group inflates the capacity tier.
		{"empty disk stripe", func(s *Spec) { s.Storage.Orion.SSU.Disk.Data, s.Storage.Orion.SSU.Disk.Parity = 0, 0 }, "ssu.Disk"},
		{"disk stripe wider than drives", func(s *Spec) { s.Storage.Orion.SSU.Disk.Data = 300 }, "ssu.Disk"},
		{"negative flash parity", func(s *Spec) { s.Storage.Orion.SSU.Flash.Parity = -1 }, "ssu.Flash"},
		{"flash spares eat the stripe", func(s *Spec) { s.Storage.Orion.SSU.Flash.Spares = 20 }, "ssu.Flash"},
		{"one leader", func(s *Spec) { s.Mgmt.Leaders = 1 }, "leader"},
		// Machine-size ceilings: a spec must not size the fabric's
		// tables beyond what one process can hold.
		{"million groups", func(s *Spec) { s.Topology.ComputeGroups = 1 << 20 }, "computeGroups"},
		{"overflowing group sum", func(s *Spec) { s.Topology.IOGroups = math.MaxInt }, "ioGroups"},
		{"overflowing endpoint product", func(s *Spec) {
			// 74 × 2^62 × 16 wraps to 0; the node override kept it valid.
			s.Topology.ComputeGroupSwitches = 1 << 62
			s.Topology.Nodes = 9472
		}, "computeGroupSwitches"},
		{"huge node override", func(s *Spec) { s.Topology.Nodes = 1 << 40 }, "override"},
		{"huge top-of-rack groups", func(s *Spec) { s.Topology.TORGroupSwitches = 4096 }, "torGroupSwitches"},
		{"huge global bundle", func(s *Spec) { s.Topology.IOIOLinks = 1 << 30 }, "bundle"},
		{"disconnected compute groups", func(s *Spec) { s.Topology.ComputeComputeLinks = 0 }, "computeComputeLinks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Frontier()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.keyword)) {
				t.Errorf("error %q should mention %q", err, tc.keyword)
			}
		})
	}
	// A fat-tree case too.
	s := Summit()
	s.Topology.Leaves = 0
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "leaves") {
		t.Errorf("fat-tree leaf validation: %v", err)
	}
	s = Summit()
	s.Topology.Leaves = 1 << 40
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "endpointsPerLeaf") {
		t.Errorf("fat-tree size ceiling: %v", err)
	}
	// All built-ins validate clean.
	for _, name := range Names() {
		m, _ := ByName(name)
		if err := m.Validate(); err != nil {
			t.Errorf("%s: canonical spec invalid: %v", name, err)
		}
	}
}

// Cross-kind derivations fail loudly rather than producing zero configs;
// the wrong topology kind is a part the spec lacks (ErrNotInSpec).
func TestWrongTopologyDerivations(t *testing.T) {
	if _, err := Summit().FabricConfig(); !errors.Is(err, ErrNotInSpec) {
		t.Errorf("FabricConfig on a fat tree: err = %v, want ErrNotInSpec", err)
	}
	if _, err := Frontier().ClosConfig(); !errors.Is(err, ErrNotInSpec) {
		t.Errorf("ClosConfig on a dragonfly: err = %v, want ErrNotInSpec", err)
	}
	if _, err := Titan().PowerMachine(); err == nil {
		t.Error("PowerMachine without power parameters should error")
	}
	if _, err := Titan().Orion(); err == nil {
		t.Error("Orion without storage parameters should error")
	}
}

// Cori's explicit node override: the Aries fabric carries more
// endpoints than compute nodes.
func TestCoriNodeOverride(t *testing.T) {
	c := Cori()
	if got := c.Topology.DerivedNodes(); got != 9720 {
		t.Errorf("derived nodes = %d, want 9720", got)
	}
	if got := c.Nodes(); got != 9688 {
		t.Errorf("Nodes() = %d, want 9688 (override)", got)
	}
}

// The whole-machine burst buffer sizes itself from the topology.
func TestBurstBufferNodeDefault(t *testing.T) {
	bb, err := Frontier().BurstBuffer(0)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Nodes != 9472 {
		t.Errorf("whole-machine burst buffer Nodes = %d, want 9472", bb.Nodes)
	}
	bb, err = Frontier().BurstBuffer(1000)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Nodes != 1000 {
		t.Errorf("job burst buffer Nodes = %d, want 1000", bb.Nodes)
	}
}

// TestCanonicalFabricsExactlySized builds every canonical machine's
// fabric and checks that its link array was allocated once at the
// config's link count. TestFabricTablesExactlySized in internal/fabric
// checks the unexported tables on the same two builders.
func TestCanonicalFabricsExactlySized(t *testing.T) {
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := spec.NewFabric()
		if err != nil {
			t.Fatal(err)
		}
		want := 177340 // Frontier's directed links: endpoint, L1 and L2
		if spec.Topology.Kind == FatTree {
			cfg, err := spec.ClosConfig()
			if err != nil {
				t.Fatal(err)
			}
			want = cfg.Leaves * 2 * (1 + cfg.EndpointsPerLeaf)
		}
		if len(f.Links) != want || cap(f.Links) != want {
			t.Errorf("%s: links len %d cap %d, want both %d", name, len(f.Links), cap(f.Links), want)
		}
	}
}
