package harness

import "frontiersim/internal/rng"

// DeriveSeed maps a root seed and a task id to the task's private seed.
// The derivation depends only on (root, id) — never on worker count or
// scheduling order — so a parallel run and a serial run of the same task
// set are byte-identical, and adding or removing tasks does not disturb
// the seeds of the others. It is rng.Derive: FNV-1a over the id folded
// into the root, then one SplitMix64 avalanche.
func DeriveSeed(root int64, id string) int64 { return rng.Derive(root, id) }
