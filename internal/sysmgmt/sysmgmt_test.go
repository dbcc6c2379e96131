package sysmgmt

import (
	"testing"
	"testing/quick"

	"frontiersim/internal/sim"
)

// clientsOf lists the compute nodes served by the given leader id.
func clientsOf(h *HPCM, leaderID int) []int {
	var out []int
	for node, vip := range h.clientVIP {
		if owner := h.vipOwner[vip]; owner != nil && owner.ID == leaderID {
			out = append(out, node)
		}
	}
	return out
}

func newHPCM(t *testing.T) (*sim.Kernel, *HPCM) {
	t.Helper()
	k := sim.NewKernel(1)
	h, err := New(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, h
}

func TestPlaneShape(t *testing.T) {
	_, h := newHPCM(t)
	if len(h.Leaders) != 21 {
		t.Errorf("leaders = %d, want 21", len(h.Leaders))
	}
	if len(h.DVSNodes) != 12 {
		t.Errorf("dvs = %d, want 12", len(h.DVSNodes))
	}
	if len(h.SlurmCtls) != 2 {
		t.Errorf("slurmctl = %d, want 2", len(h.SlurmCtls))
	}
	if h.AdminNode == nil || h.AdminNode.Role != Admin {
		t.Error("admin node missing")
	}
	if h.String() == "" {
		t.Error("empty String")
	}
}

func TestClientAssignment(t *testing.T) {
	_, h := newHPCM(t)
	l, err := h.LeaderFor(0)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := h.LeaderFor(21)
	if err != nil {
		t.Fatal(err)
	}
	if l.ID != l2.ID {
		t.Error("nodes 0 and 21 should share a leader (round robin over 21)")
	}
	if _, err := h.LeaderFor(999999); err == nil {
		t.Error("unknown node should error")
	}
	// Every leader serves roughly 9472/21 clients.
	for _, ld := range h.Leaders {
		n := len(clientsOf(h, ld.ID))
		if n < 450 || n > 452 {
			t.Errorf("leader %d serves %d clients, want ~451", ld.ID, n)
		}
	}
}

// The paper: "Leader-node failure is transparently handled by HPCM's
// CTDB implementation — another leader takes over the virtual IP."
func TestCTDBFailoverTransparent(t *testing.T) {
	_, h := newHPCM(t)
	before, err := h.LeaderFor(0)
	if err != nil {
		t.Fatal(err)
	}
	clients := clientsOf(h, before.ID)
	if err := h.FailLeader(before.ID); err != nil {
		t.Fatal(err)
	}
	after, err := h.LeaderFor(0)
	if err != nil {
		t.Fatalf("clients must still be served: %v", err)
	}
	if after.ID == before.ID {
		t.Error("failed leader still serving")
	}
	if !after.Healthy {
		t.Error("takeover leader must be healthy")
	}
	// The takeover leader now serves the failed leader's clients too.
	for _, c := range clients {
		got, err := h.LeaderFor(c)
		if err != nil || got.ID != after.ID {
			t.Fatalf("client %d not failed over: %v %v", c, got, err)
		}
	}
	if h.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", h.Failovers)
	}
	// Restore gives the home VIP back.
	h.RestoreLeader(before.ID)
	restored, _ := h.LeaderFor(0)
	if restored.ID != before.ID {
		t.Error("restored leader should reclaim its VIP")
	}
}

func TestCascadingFailovers(t *testing.T) {
	_, h := newHPCM(t)
	// Fail 19 of 21 leaders; the survivors must pick everything up.
	for i := 0; i < 19; i++ {
		if err := h.FailLeader(h.Leaders[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	if h.HealthyLeaders() != 2 {
		t.Fatalf("healthy = %d, want 2", h.HealthyLeaders())
	}
	for n := 0; n < 100; n++ {
		if _, err := h.LeaderFor(n); err != nil {
			t.Fatalf("node %d unserved: %v", n, err)
		}
	}
	// VIP load should be balanced between the two survivors.
	load := map[int]int{}
	for _, owner := range h.vipOwner {
		load[owner.ID]++
	}
	if len(load) != 2 {
		t.Fatalf("VIPs on %d leaders, want 2", len(load))
	}
	for id, l := range load {
		if l < 9 || l > 12 {
			t.Errorf("leader %d owns %d VIPs, want balanced ~10-11", id, l)
		}
	}
	// Failing everything errors.
	h.FailLeader(h.Leaders[19].ID)
	if err := h.FailLeader(h.Leaders[20].ID); err == nil {
		t.Error("failing the last leader should error")
	}
}

func TestFailLeaderEdgeCases(t *testing.T) {
	_, h := newHPCM(t)
	if err := h.FailLeader(9999); err == nil {
		t.Error("unknown leader should error")
	}
	id := h.Leaders[0].ID
	if err := h.FailLeader(id); err != nil {
		t.Fatal(err)
	}
	if err := h.FailLeader(id); err != nil {
		t.Errorf("double-fail should be a no-op: %v", err)
	}
}

func TestBootTimeScales(t *testing.T) {
	_, h := newHPCM(t)
	full := h.BootTime(9472)
	half := h.BootTime(4736)
	if full <= half {
		t.Error("booting more nodes should take longer")
	}
	// Reliable, scalable boot: the full machine should boot in minutes,
	// not hours.
	if float64(full) > 3600 {
		t.Errorf("full boot = %v, want under an hour", full)
	}
	if h.BootTime(0) != 0 {
		t.Error("zero nodes boot instantly")
	}
	// Fewer leaders -> slower boot.
	for i := 0; i < 15; i++ {
		h.FailLeader(h.Leaders[i].ID)
	}
	if h.BootTime(9472) <= full {
		t.Error("boot with 6 leaders should be slower than with 21")
	}
}

func TestDiscoveryDaemon(t *testing.T) {
	k, h := newHPCM(t)
	state := map[string]string{"chassis-0-blade-3": "present"}
	h.StartDiscovery(func() map[string]string { return state })
	k.RunUntil(90)
	if h.Discoveries != 1 {
		t.Fatalf("discoveries = %d, want 1", h.Discoveries)
	}
	// A maintenance swap is noticed without intervention.
	state["chassis-0-blade-3"] = "replaced"
	k.RunUntil(200)
	if h.Discoveries != 2 {
		t.Errorf("discoveries = %d, want 2 after swap", h.Discoveries)
	}
	// Unchanged state is not re-recorded.
	k.RunUntil(400)
	if h.Discoveries != 2 {
		t.Errorf("discoveries = %d, want 2 (no changes)", h.Discoveries)
	}
	h.StopDiscovery()
	pending := k.Pending()
	k.RunUntil(1000)
	if h.Discoveries != 2 {
		t.Error("sweeps should stop after StopDiscovery")
	}
	_ = pending
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(k, Config{ComputeNodes: 10, Leaders: 1}); err == nil {
		t.Error("one leader cannot do CTDB failover")
	}
	if _, err := New(k, Config{ComputeNodes: 0, Leaders: 3}); err == nil {
		t.Error("zero compute nodes should error")
	}
}

// Property: after any sequence of fail/restore operations, every compute
// node is served by a healthy leader (as long as one leader survives).
func TestAlwaysServedProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		k := sim.NewKernel(2)
		h, err := New(k, Config{ComputeNodes: 64, Leaders: 5, DVSNodes: 1, SlurmCtls: 1})
		if err != nil {
			return false
		}
		for _, op := range ops {
			id := h.Leaders[int(op)%5].ID
			if op%2 == 0 {
				// Never fail the last healthy leader.
				if h.HealthyLeaders() > 1 {
					if err := h.FailLeader(id); err != nil {
						return false
					}
				}
			} else {
				h.RestoreLeader(id)
			}
		}
		for n := 0; n < 64; n++ {
			l, err := h.LeaderFor(n)
			if err != nil || !l.Healthy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRoleStrings(t *testing.T) {
	for _, r := range []Role{Admin, Leader, DVS, SlurmController, FabricManagerHost, Role(42)} {
		if r.String() == "" {
			t.Errorf("empty role string for %d", int(r))
		}
	}
}
