// Package experiments maps every table and figure in the paper's
// evaluation to a runnable reproduction: each experiment builds the
// simulated machine, runs the corresponding benchmark model, and returns
// a paper-vs-measured report table. The registry drives both the
// frontier-sim CLI and the root-level benchmark suite.
package experiments

import (
	"fmt"

	"frontiersim/internal/core"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/network"
	"frontiersim/internal/report"
)

// Options tunes experiment execution.
type Options struct {
	// Quick trades sampling depth for speed (used by tests); the full
	// runs are what EXPERIMENTS.md records.
	Quick bool
	// Seed drives all randomness. RunAll derives a private per-
	// experiment seed from it (see internal/harness.DeriveSeed), so a
	// runner must draw every random number from Options.Seed and never
	// from shared state.
	Seed int64
	// Machine overrides the machine under test (nil = the canonical
	// Frontier spec). Comparison baselines — Summit's side of fig6, the
	// application tables' named platforms — stay canonical regardless,
	// since their paper values are tied to those specific systems.
	Machine *machine.Spec
	// Solutions optionally shares a max-min solver solution cache across
	// the network experiments of one process (frontier-bench's traced
	// runs attach one). A cache hit applies the bit-exact allocation
	// the skipped solve would have produced, so it is purely a speed knob
	// that never enters result content or cache keys. nil disables reuse.
	Solutions *network.SolutionCache
	// uncached runs the campaign experiments without their pricing
	// cache. It exists so tests can compare cached and cold campaigns;
	// nothing outside this package can set it.
	uncached bool
}

// pricingCache attaches a fresh, unbounded placement-signature pricing
// cache to the system's job environment and returns it for hit-rate
// reporting (nil when the machine has no scheduler). Hits reproduce cold
// pricing bit-for-bit, so the cache never changes a campaign statistic;
// being unbounded and per run, its reported hit rate is a pure function
// of the job stream.
func (o Options) pricingCache(sys *core.System, spec machine.Spec) *job.PricingCache {
	if o.uncached || sys.Scheduler == nil {
		return nil
	}
	cache := job.NewPricingCache()
	sys.Scheduler.Env.Cache = cache
	sys.Scheduler.Env.CacheKey = topoKey(spec)
	return cache
}

// machine returns the spec of the machine under test.
func (o Options) machine() machine.Spec {
	if o.Machine != nil {
		return *o.Machine
	}
	return machine.Frontier()
}

// topoKey returns the canonical content address of a machine spec for
// solution-cache and pricing-cache keys, so fabrics built from the same
// spec share stored entries across experiment boundaries.
// An unhashable spec degrades to "", which restricts hits to the exact
// fabric instance — slower, never wrong.
func topoKey(spec machine.Spec) string {
	h, err := machine.Hash(spec)
	if err != nil {
		return ""
	}
	return h
}

// DefaultOptions returns the configuration used for the recorded runs.
func DefaultOptions() Options { return Options{Seed: 42} }

// Runner executes one experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(Options) (*report.Table, error)
	// Cost is a relative wall-time hint (measured quick-mode seconds,
	// rounded): the parallel harness starts expensive experiments first
	// so the batch makespan approaches the longest single experiment.
	// It never affects results.
	Cost float64
}

// Registry returns all experiments in paper order.
func Registry() []Runner {
	return []Runner{
		{"table1", "Frontier compute peak specifications", Table1, 0.2},
		{"table2", "I/O subsystem capacities and bandwidths", Table2, 0},
		{"table3", "CPU STREAM, temporal vs non-temporal stores", Table3, 0.3},
		{"fig3", "CoralGemm achieved vs peak per precision", Fig3, 0},
		{"table4", "GPU STREAM bandwidth", Table4, 0},
		{"fig4", "Aggregate CPU-to-GCD bandwidth, 8 ranks", Fig4, 0},
		{"fig5", "GCD-to-GCD bandwidth: CU kernels vs SDMA", Fig5, 0},
		{"fig6", "mpiGraph per-NIC bandwidth census (Frontier vs Summit)", Fig6, 3.6},
		{"table5", "GPCNeT congestion benchmark at 8 PPN", Table5, 1.7},
		{"sec431", "Node-local storage (fio)", Sec431, 0},
		{"sec432", "Orion Lustre streaming and ingest", Sec432, 0},
		{"table6", "CAAR and INCITE application speedups vs Summit", Table6, 0.1},
		{"table7", "ECP application speedups", Table7, 0},
		{"sec51", "Energy and power (HPL, Green500)", Sec51, 0},
		{"sec54", "Resiliency (MTTI, contributors, checkpointing)", Sec54, 0},
		{"ablation-taper", "Ablation: dragonfly global-bundle taper sweep", AblationTaper, 0.2},
		{"ablation-nps", "Ablation: NPS-1 vs NPS-4 memory interleaving", AblationNPS, 0},
		{"ablation-routing", "Ablation: minimal-only vs adaptive routing", AblationRouting, 1.5},
		{"ablation-cc", "Ablation: congestion control off (GPCNeT)", AblationCC, 3.4},
		{"ablation-placement", "Ablation: scheduler pack vs spread placement", AblationPlacement, 0.1},
		{"ablation-checkpoint", "Extension: checkpoint interval vs MTTI (Daly)", AblationCheckpoint, 0},
		{"ablation-ppn", "Ablation: GPCNeT at 32 PPN (CC protection erodes)", AblationPPN, 7.1},
		{"ext-burstbuffer", "Extension: node-local burst buffer use cases", ExtBurstBuffer, 0},
		{"ext-sysmgmt", "Extension: HPCM boot, CTDB failover, discovery", ExtSysmgmt, 0},
		{"ext-operations", "Extension: a simulated week of operations", ExtOperations, 0.4},
		{"ext-inventory", "Extension: dragonfly vs Clos ports and cables", ExtInventory, 0.1},
		{"ext-miniapps", "Extension: real kernels validated + roofline-predicted", ExtMiniapps, 0.1},
		{"ext-llm", "Extension: LLM training scaling, phase-structured programs", ExtLLM, 0.5},
		{"ext-campaign", "Extension: a campaign week of phase-structured jobs", ExtCampaign, 0.5},
		{"ext-year", "Extension: a year of operations on full Frontier (pricing cache, indexed scheduler)", ExtYear, 2.0},
	}
}

// ByID resolves one experiment.
func ByID(id string) (Runner, error) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown id %q (try 'list')", id)
}
