package mpi

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"frontiersim/internal/fabric"
	"frontiersim/internal/units"
)

func testFabric(t *testing.T) *fabric.Fabric {
	t.Helper()
	f, err := fabric.NewDragonfly(scaledConfig(6, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func nodeRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestCommConstruction(t *testing.T) {
	f := testFabric(t)
	c, err := NewComm(f, nodeRange(16), 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 128 {
		t.Errorf("size = %d, want 128", c.Size())
	}
	if c.NodeOf(0) != 0 || c.NodeOf(127) != 15 {
		t.Error("rank-to-node mapping wrong")
	}
	// Ranks round-robin over the node's 4 NICs.
	if c.EndpointOf(0) == c.EndpointOf(1) {
		t.Error("consecutive ranks should use different NICs")
	}
	if c.EndpointOf(0) != c.EndpointOf(4) {
		t.Error("ranks 0 and 4 should share NIC 0")
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func TestCommValidation(t *testing.T) {
	f := testFabric(t)
	if _, err := NewComm(f, nil, 8); err == nil {
		t.Error("empty node list should error")
	}
	if _, err := NewComm(f, []int{99999}, 8); err == nil {
		t.Error("out-of-range node should error")
	}
	if _, err := NewComm(f, nodeRange(4), 0); err == nil {
		t.Error("zero ppn should error")
	}
}

func TestGroupsSpanned(t *testing.T) {
	f := testFabric(t)
	packed, _ := NewComm(f, nodeRange(8), 8) // all in group 0
	if packed.GroupsSpanned() != 1 {
		t.Errorf("packed job spans %d groups, want 1", packed.GroupsSpanned())
	}
	spread, _ := NewComm(f, nodeRange(48), 8) // all 6 groups
	if spread.GroupsSpanned() != 6 {
		t.Errorf("spread job spans %d groups, want 6", spread.GroupsSpanned())
	}
}

func TestPackedJobGetsNICRate(t *testing.T) {
	f := testFabric(t)
	c, _ := NewComm(f, nodeRange(8), 8)
	want := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	if got := float64(c.PerNICBandwidth()); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("packed per-NIC = %.3g, want %.3g", got, want)
	}
}

func TestSpreadJobTaperLimited(t *testing.T) {
	f := testFabric(t)
	packed, _ := NewComm(f, nodeRange(8), 8)
	spread, _ := NewComm(f, nodeRange(48), 8)
	if spread.PerNICBandwidth() >= packed.PerNICBandwidth() {
		t.Errorf("spread job %v should be below packed %v", spread.PerNICBandwidth(), packed.PerNICBandwidth())
	}
}

func TestFrontierAllToAllCalibration(t *testing.T) {
	// Paper §4.2.2: all-to-all at 8 PPN with 128 KiB messages achieves
	// ~30-32 GB/s per node (7.5-8 GB/s per NIC).
	f, err := fabric.NewDragonfly(frontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewComm(f, nodeRange(9472), 8)
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(c.AllToAllPerRankBandwidth()) * 8 / 1e9
	if perNode < 28 || perNode > 36 {
		t.Errorf("all-to-all per node = %.1f GB/s, want ~30-32", perNode)
	}
}

func TestCollectiveOrderings(t *testing.T) {
	f := testFabric(t)
	c, _ := NewComm(f, nodeRange(32), 8)
	// Small allreduce is latency bound; big one costs more.
	small := c.Allreduce(8)
	big := c.Allreduce(64 * units.MiB)
	if big <= small {
		t.Errorf("allreduce: big %v <= small %v", big, small)
	}
	if small <= 0 {
		t.Error("allreduce must take time")
	}
	// Barrier is cheaper than a large broadcast.
	if c.Barrier() >= c.Broadcast(64*units.MiB) {
		t.Error("barrier should be cheaper than large broadcast")
	}
	// Reduce is cheaper than allreduce.
	if c.Reduce(units.MiB) >= c.Allreduce(units.MiB) {
		t.Error("reduce should be cheaper than allreduce")
	}
	// All-to-all grows with message size.
	if c.AllToAll(4*units.KiB) >= c.AllToAll(256*units.KiB) {
		t.Error("alltoall should grow with message size")
	}
	// Halo exchange grows with face size.
	if c.Halo3D(units.KiB) >= c.Halo3D(units.MiB) {
		t.Error("halo should grow with face bytes")
	}
}

func TestSendRecvLocality(t *testing.T) {
	f := testFabric(t)
	c, _ := NewComm(f, nodeRange(32), 8)
	intra := c.SendRecv(0, 1, units.MiB)  // same node
	inter := c.SendRecv(0, 16, units.MiB) // different node, 1 MiB
	if intra >= inter {
		t.Errorf("intra-node %v should beat inter-node %v", intra, inter)
	}
	// Large messages pay rendezvous.
	eager := c.SendRecv(0, 16, 4*units.KiB)
	if eager >= inter {
		t.Error("small message should be faster")
	}
}

func TestAllreduceScalesLogarithmically(t *testing.T) {
	f := testFabric(t)
	small, _ := NewComm(f, nodeRange(8), 8)  // 64 ranks: 6 stages
	large, _ := NewComm(f, nodeRange(32), 8) // 256 ranks: 8 stages
	ratio := float64(large.Allreduce(8)) / float64(small.Allreduce(8))
	if math.Abs(ratio-8.0/6.0) > 0.05 {
		t.Errorf("stage ratio = %.3f, want ~1.33", ratio)
	}
}

func TestSplitRowColumns(t *testing.T) {
	f := testFabric(t)
	c, _ := NewComm(f, nodeRange(16), 4) // 64 ranks
	// 8x8 grid: row communicators.
	rows, err := c.Split(func(rank int) int { return rank / 8 })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	totalRanks := 0
	for _, sub := range rows {
		totalRanks += sub.Size()
	}
	if totalRanks < c.Size() {
		t.Errorf("split loses ranks: %d < %d", totalRanks, c.Size())
	}
	// A sub-communicator a2a is cheaper than the global one for the
	// same per-pair bytes (fewer partners).
	if rows[0].AllToAll(64*units.KiB) >= c.AllToAll(64*units.KiB) {
		t.Error("sub-communicator alltoall should be cheaper")
	}
}

// RankZeroGroup must return exactly the rank-0 sub-communicator Split
// builds: same nodes in the same order, same PPN and group span, for
// every block size and every full stride Program.Validate accepts, on
// random (unsorted) placements.
func TestRankZeroGroupMatchesSplit(t *testing.T) {
	f := testFabric(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		nodes := rng.Perm(f.Cfg.ComputeNodes())[:1+rng.Intn(12)]
		ppn := 1 + rng.Intn(8)
		c, err := NewComm(f, nodes, ppn)
		if err != nil {
			t.Fatal(err)
		}
		ranks := c.Size()
		for k := 1; k <= ranks; k++ {
			if ranks%k != 0 {
				continue
			}
			shapes := []struct {
				name         string
				size, stride int
				color        func(int) int
			}{
				{"block", k, 1, func(r int) int { return r / k }},
				{"strided", ranks / k, k, func(r int) int { return r % k }},
			}
			for _, sh := range shapes {
				if sh.name == "strided" && k < 2 {
					continue
				}
				all, err := c.Split(sh.color)
				if err != nil {
					t.Fatal(err)
				}
				want, got := all[0], c.RankZeroGroup(sh.size, sh.stride)
				if !slices.Equal(got.Nodes, want.Nodes) || got.PPN != want.PPN ||
					got.GroupsSpanned() != want.GroupsSpanned() {
					t.Fatalf("nodes %v ppn=%d %s %dx%d: RankZeroGroup nodes %v groups %d, Split nodes %v groups %d",
						nodes, ppn, sh.name, sh.size, sh.stride, got.Nodes, got.GroupsSpanned(), want.Nodes, want.GroupsSpanned())
				}
			}
		}
	}
}

// A repeated node would price cross-node exchanges as intra-node, so
// NewComm rejects it whether or not the placement is sorted.
func TestCommRejectsRepeatedNode(t *testing.T) {
	f := testFabric(t)
	for _, nodes := range [][]int{{3, 3}, {5, 2, 9, 2}, {0, 1, 1, 2}} {
		if _, err := NewComm(f, nodes, 4); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("NewComm(%v) = %v, want a repeated-node error", nodes, err)
		}
	}
	if _, err := NewComm(f, []int{9, 2, 5}, 4); err != nil {
		t.Errorf("distinct unsorted nodes rejected: %v", err)
	}
}

func TestAllGatherReduceScatter(t *testing.T) {
	f := testFabric(t)
	c, _ := NewComm(f, nodeRange(16), 4)
	ag := c.AllGather(units.MiB)
	rs := c.ReduceScatter(units.MiB)
	if ag <= 0 || rs <= 0 {
		t.Fatal("collectives must take time")
	}
	// Allgather moves (P-1)*b per rank; reduce-scatter (P-1)/P*b.
	if rs >= ag {
		t.Errorf("reduce-scatter %v should be cheaper than allgather %v", rs, ag)
	}
	single, _ := NewComm(f, nodeRange(1), 1)
	if single.AllGather(units.MiB) != 0 || single.ReduceScatter(units.MiB) != 0 {
		t.Error("single-rank collectives are free")
	}
}

// Property: for any job shape, bandwidth invariants hold — per-rank <=
// per-NIC <= line rate x efficiency, and all-to-all never beats
// permutation bandwidth.
func TestBandwidthInvariantsProperty(t *testing.T) {
	f := testFabric(t)
	nic := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	check := func(rawNodes uint8, rawPPN uint8) bool {
		n := int(rawNodes)%47 + 2
		ppn := int(rawPPN)%15 + 1
		c, err := NewComm(f, nodeRange(n), ppn)
		if err != nil {
			return false
		}
		perNIC := float64(c.PerNICBandwidth())
		perRank := float64(c.PerRankBandwidth())
		a2a := float64(c.AllToAllPerRankBandwidth())
		return perNIC <= nic*(1+1e-9) &&
			perRank <= perNIC*(1+1e-9) &&
			a2a <= perRank*(1+1e-9) &&
			perRank > 0 && a2a > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
