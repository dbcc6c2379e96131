package job_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"frontiersim/internal/job"
	"frontiersim/internal/machine"
)

// referenceSignature is the per-node PlacementSignature encoder the
// run-reading one replaced, kept as the reference it must equal: one
// NodeGroup lookup per node, and one count per stretch of equal groups.
// groups is the number of those stretches. ok is false for a list
// outside the placement contract — not strictly increasing, or holding
// an id outside the machine — tested node by node.
func referenceSignature(e *job.Env, nodes []int) (key string, groups int, ok bool) {
	f := e.Fabric
	total := f.Cfg.ComputeNodes()
	buf := binary.AppendUvarint(nil, uint64(len(nodes)))
	run, runLen := -1, uint64(0)
	for i, node := range nodes {
		if node < 0 || node >= total || (i > 0 && node <= nodes[i-1]) {
			return "", 0, false
		}
		if g := f.NodeGroup(node); g != run {
			if runLen > 0 {
				buf = binary.AppendUvarint(buf, runLen)
			}
			run, runLen = g, 0
			groups++
		}
		runLen++
	}
	if runLen > 0 {
		buf = binary.AppendUvarint(buf, runLen)
	}
	return string(buf), groups, true
}

// FuzzPlacementSignature holds Fabric.NewPlacement and
// PlacementSignature to the per-node reference for arbitrary node lists
// on a 6-group machine of 32 nodes per group: NewPlacement rejects
// exactly the lists the contract excludes, and on the rest the
// placement expands back to the list, and its signature and group count
// equal the reference's. Each byte is a node id offset by -16 (raw mode)
// or the step from the previous node, starting at -17 (delta mode): raw
// lists are unsorted with repeats, delta lists are sorted and strictly
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
		want, groups, valid := referenceSignature(env, nodes)
		p, err := fab.NewPlacement(nodes)
		if (err == nil) != valid {
			t.Fatalf("NewPlacement(%v) = %v; contract says valid = %v", nodes, err, valid)
		}
		if !valid {
			return
		}
		if ids := p.AppendNodes(nil); !slices.Equal(ids, nodes) {
			t.Fatalf("NewPlacement(%v) expands to %v", nodes, ids)
		}
		if got := env.PlacementSignature(p); got != want {
			t.Fatalf("PlacementSignature(%v) = %q; reference %q", nodes, got, want)
		}
		if p.GroupsSpanned() != groups {
			t.Fatalf("GroupsSpanned(%v) = %d; reference %d", nodes, p.GroupsSpanned(), groups)
		}
	})
}
