package job_test

import (
	"encoding/binary"
	"testing"

	"frontiersim/internal/job"
	"frontiersim/internal/machine"
)

// referenceSignature is the per-node PlacementSignature encoder the
// stretch-walking one replaced, kept as the reference it must equal:
// one NodeGroup lookup and one run-length step per node.
func referenceSignature(e *job.Env, nodes []int) (string, bool) {
	f := e.Fabric
	total := f.Cfg.ComputeNodes()
	labels := make([]int32, f.Cfg.TotalGroups())
	for i := range labels {
		labels[i] = -1
	}
	next := int32(0)
	key := binary.AppendUvarint(nil, uint64(len(nodes)))
	run, runLen := int32(-1), uint64(0)
	increasing := true
	for i, node := range nodes {
		if node < 0 || node >= total {
			return "", false
		}
		if i > 0 && node <= nodes[i-1] {
			increasing = false
		}
		g := f.NodeGroup(node)
		if labels[g] < 0 {
			labels[g] = next
			next++
		}
		if labels[g] != run {
			if runLen > 0 {
				key = binary.AppendUvarint(binary.AppendUvarint(key, uint64(run)), runLen)
			}
			run, runLen = labels[g], 0
		}
		runLen++
	}
	if !increasing && f.CheckNodes(nodes) != nil {
		return "", false
	}
	if runLen > 0 {
		key = binary.AppendUvarint(binary.AppendUvarint(key, uint64(run)), runLen)
	}
	return string(key), true
}

// FuzzPlacementSignature holds PlacementSignature to the per-node
// reference for arbitrary node lists on a 6-group machine of 32 nodes
// per group. Each byte is a node id offset by -16 (raw mode) or the
// step from the previous node, starting at -17 (delta mode): raw lists
// are unsorted with repeats, delta lists are sorted and strictly
// increasing wherever no step is zero, and both reach negative and
// out-of-range ids.
func FuzzPlacementSignature(f *testing.F) {
	spec := machine.Scaled(6, 8, 16)
	fab, err := spec.NewFabric()
	if err != nil {
		f.Fatal(err)
	}
	env, err := spec.JobEnv(fab)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, deltas bool) {
		nodes := make([]int, len(data))
		prev := -17
		for i, b := range data {
			if deltas {
				prev += int(b)
				nodes[i] = prev
			} else {
				nodes[i] = int(b) - 16
			}
		}
		got, ok := env.PlacementSignature(nodes)
		want, wantOK := referenceSignature(env, nodes)
		if got != want || ok != wantOK {
			t.Fatalf("PlacementSignature(%v) = %q, %v; reference %q, %v", nodes, got, ok, want, wantOK)
		}
	})
}
