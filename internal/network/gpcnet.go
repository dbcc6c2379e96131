package network

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"frontiersim/internal/fabric"
	"frontiersim/internal/rng"
	"frontiersim/internal/units"
)

// GPCNeTConfig controls the congestion benchmark of Table 5. GPCNeT [12]
// splits the machine 80/20 into congestor and victim nodes: congestors
// run adversarial patterns (all-to-all, incast, broadcast) while victims
// measure point-to-point latency, windowed bandwidth, and allreduce.
type GPCNeTConfig struct {
	// Nodes participating (9,400 in the paper's run).
	Nodes int
	// PPN is processes per node (8 is the expected production case).
	PPN int
	// RRMessageBytes is the victim bandwidth-test message (131072).
	RRMessageBytes units.Bytes
	// LatencySamples is the number of victim latency probes.
	LatencySamples int
	// ValiantPaths for adaptive routing.
	ValiantPaths int
	// SyncOverhead is the per-window synchronisation cost of the
	// BW+Sync victim pattern (calibrated: ~20 µs).
	SyncOverhead units.Seconds
	// BWJitter is the relative spread of per-rank bandwidth samples.
	BWJitter float64
}

// DefaultGPCNeTConfig mirrors the paper's 9,400-node, 8-PPN run.
func DefaultGPCNeTConfig() GPCNeTConfig {
	return GPCNeTConfig{
		Nodes:          9400,
		PPN:            8,
		RRMessageBytes: 128 * units.KiB,
		LatencySamples: 4000,
		ValiantPaths:   4,
		SyncOverhead:   17.5 * units.Microsecond,
		BWJitter:       0.13,
	}
}

// BWStats summarises per-rank bandwidth: Average and the 99th-percentile
// *worst case* (the lowest 1%), which is how GPCNeT reports "99%".
type BWStats struct {
	Average units.BytesPerSecond
	P99     units.BytesPerSecond
	N       int
}

// GPCNeTResult carries both phases and the impact factors.
type GPCNeTResult struct {
	Isolated  GPCNeTPhase
	Congested GPCNeTPhase
	// Impact factors: congested / isolated for latency (>1 is worse),
	// isolated / congested for bandwidth (>1 is worse).
	LatencyImpact   float64
	BandwidthImpact float64
	AllreduceImpact float64
}

// GPCNeTPhase is one measurement phase.
type GPCNeTPhase struct {
	Latency   LatencyStats
	Bandwidth BWStats
	Allreduce LatencyStats
}

// RunGPCNeT executes the benchmark on fabric f once per entry of cc and
// returns one result per entry, in order. An entry is true when
// Slingshot's hardware congestion control is on; off models a fabric
// whose congestors are not source-throttled (tree saturation and HOL
// blocking leak into victims, as on Summit's EDR [73]).
//
// CC only shapes the head-of-line derating after the solve, so every arm
// shares each phase's one solve. The xoshiro stream seeded by seed is
// copied at the point where the arms part, so each arm's result is the
// one a separate single-arm call at the same seed returns. With a
// non-nil solutions cache each phase's solve is served by literal demand
// signature when possible; nil means no cache, and output is
// byte-identical either way. topo is the canonical topology address
// (machine.Hash) used in cache keys, or "" to restrict hits to this
// exact fabric instance.
func RunGPCNeT(f *fabric.Fabric, cfg GPCNeTConfig, seed int64, cc []bool, solutions *SolutionCache, topo string) ([]GPCNeTResult, error) {
	if cfg.Nodes > f.Cfg.ComputeNodes() {
		return nil, fmt.Errorf("network: %d nodes exceeds fabric's %d", cfg.Nodes, f.Cfg.ComputeNodes())
	}
	if cfg.Nodes < 10 {
		return nil, fmt.Errorf("network: GPCNeT needs at least 10 nodes")
	}
	if cfg.PPN < 1 {
		return nil, fmt.Errorf("network: GPCNeT needs at least one process per node, got %d", cfg.PPN)
	}
	if cfg.LatencySamples < 1 {
		return nil, fmt.Errorf("network: GPCNeT needs at least one latency sample, got %d", cfg.LatencySamples)
	}
	if len(cc) == 0 {
		return nil, fmt.Errorf("network: GPCNeT needs at least one congestion-control arm")
	}
	src := rng.NewSource(seed)
	r := rand.New(src)
	// 20% victims, spread across the machine like a real allocation.
	var victims, congestors []int
	for n := 0; n < cfg.Nodes; n++ {
		if n%5 == 0 {
			victims = append(victims, n)
		} else {
			congestors = append(congestors, n)
		}
	}
	victimDemands := victimRing(f, victims, cfg, r)
	if err := solveCached(f, victimDemands, solutions, topo); err != nil {
		return nil, err
	}
	isolated, err := measurePhase(f, cfg, victimDemands, victims, r, 0, nil)
	if err != nil {
		return nil, err
	}
	congestorDemands := buildCongestors(f, congestors, cfg, r)
	// Fresh victim demand objects (the solver mutates rates).
	victimDemands = victimRing(f, victims, cfg, r)
	all := make([]*Demand, 0, len(victimDemands)+len(congestorDemands))
	all = append(all, victimDemands...)
	all = append(all, congestorDemands...)
	if err := solveCached(f, all, solutions, topo); err != nil {
		return nil, err
	}
	fork := *src
	var congestedLinks []bool
	out := make([]GPCNeTResult, len(cc))
	for i, on := range cc {
		*src = fork
		hol := 0.0 // with no congestor traffic there is nothing to block behind
		if len(congestorDemands) > 0 {
			hol = holFactor(cfg, on)
		}
		if hol > 0 && congestedLinks == nil {
			congestedLinks = holLinks(f, all, congestorDemands)
		}
		congested, err := measurePhase(f, cfg, victimDemands, victims, r, hol, congestedLinks)
		if err != nil {
			return nil, err
		}
		res := GPCNeTResult{Isolated: isolated, Congested: congested}
		res.LatencyImpact = float64(congested.Latency.Average) / float64(isolated.Latency.Average)
		res.BandwidthImpact = float64(isolated.Bandwidth.Average) / float64(congested.Bandwidth.Average)
		res.AllreduceImpact = float64(congested.Allreduce.Average) / float64(isolated.Allreduce.Average)
		out[i] = res
	}
	return out, nil
}

// holFactor is the strength of head-of-line blocking victims suffer in
// the congested phase: full without CC, none with it. Protection also
// erodes as PPN grows past the 8-rank-per-node design point (the paper's
// 32-PPN results).
func holFactor(cfg GPCNeTConfig, cc bool) float64 {
	switch {
	case !cc:
		return 1
	case cfg.PPN > 8:
		return math.Min(1, float64(cfg.PPN-8)/24) * 0.45
	}
	return 0
}

// holLinks marks, per fabric link, where victims meet head-of-line
// blocking: links other than injection links that congestor traffic
// crosses at more than 98% of capacity after the solve of all.
func holLinks(f *fabric.Fabric, all, congestors []*Demand) []bool {
	used := linkUse(f, all)
	hot := make([]bool, len(f.Links))
	for _, d := range congestors {
		for _, p := range d.Paths {
			for _, lid := range p {
				if used[lid]/f.Links[lid].Cap > 0.98 && f.Links[lid].Kind != fabric.Injection {
					hot[lid] = true
				}
			}
		}
	}
	return hot
}

// victimCap is the per-rank demand cap of the BW+Sync pattern: each rank
// keeps one message window in flight then synchronises, so its offered
// load is msg / (serialisation at its NIC share + sync overhead).
func victimCap(f *fabric.Fabric, cfg GPCNeTConfig) float64 {
	ranksPerNIC := float64(cfg.PPN) / float64(f.Cfg.NICsPerNode)
	if ranksPerNIC < 1 {
		ranksPerNIC = 1
	}
	share := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency / ranksPerNIC
	msg := float64(cfg.RRMessageBytes)
	return msg / (msg/share + float64(cfg.SyncOverhead))
}

// victimRing builds the victim random-ring bandwidth demands: rank r of
// victim i sends to rank r of the next victim in a shuffled ring.
func victimRing(f *fabric.Fabric, victims []int, cfg GPCNeTConfig, rng *rand.Rand) []*Demand {
	ring := append([]int(nil), victims...)
	rng.Shuffle(len(ring), func(i, j int) { ring[i], ring[j] = ring[j], ring[i] })
	cap := victimCap(f, cfg)
	var demands []*Demand
	for i, n := range ring {
		next := ring[(i+1)%len(ring)]
		for r := 0; r < cfg.PPN; r++ {
			src := f.NodeEndpoint(n, r)
			dst := f.NodeEndpoint(next, r)
			ps, err := f.AdaptivePaths(src, dst, cfg.ValiantPaths, rng)
			if err != nil {
				continue
			}
			demands = append(demands, &Demand{Src: src, Dst: dst, Paths: ps.Paths, Cap: cap})
		}
	}
	return demands
}

// buildCongestors creates the adversarial traffic: half the congestor
// ranks run a windowed all-to-all (random pairs), half run 16-to-1
// incasts. Congestors are deliberately uncapped — with hardware CC the
// fabric itself pushes them back to their bottleneck share.
func buildCongestors(f *fabric.Fabric, congestors []int, cfg GPCNeTConfig, rng *rand.Rand) []*Demand {
	var demands []*Demand
	nicRanks := f.Cfg.NICsPerNode
	if cfg.PPN < nicRanks {
		nicRanks = cfg.PPN
	}
	for i, n := range congestors {
		switch (i / 16) % 2 {
		case 0: // all-to-all: each node fires at a random other congestor
			for r := 0; r < nicRanks; r++ {
				peer := congestors[rng.Intn(len(congestors))]
				if peer == n {
					continue
				}
				src := f.NodeEndpoint(n, r)
				dst := f.NodeEndpoint(peer, r)
				ps, err := f.AdaptivePaths(src, dst, cfg.ValiantPaths, rng)
				if err != nil {
					continue
				}
				demands = append(demands, &Demand{Src: src, Dst: dst, Paths: ps.Paths})
			}
		case 1: // incast: blocks of 16 nodes target the block leader
			leader := congestors[(i/16)*16]
			if leader == n {
				continue
			}
			src := f.NodeEndpoint(n, 0)
			dst := f.NodeEndpoint(leader, 0)
			ps, err := f.AdaptivePaths(src, dst, cfg.ValiantPaths, rng)
			if err != nil {
				continue
			}
			demands = append(demands, &Demand{Src: src, Dst: dst, Paths: ps.Paths})
		}
	}
	return demands
}

// measurePhase extracts victim stats from a solved phase. hol is the
// head-of-line blocking strength (0 for none) and congested marks the
// links where it applies; it may be nil when hol is 0.
func measurePhase(f *fabric.Fabric, cfg GPCNeTConfig, victims []*Demand, victimNodes []int, rng *rand.Rand, hol float64, congested []bool) (GPCNeTPhase, error) {
	var phase GPCNeTPhase
	// Bandwidth stats over victim ranks.
	bw := make([]float64, 0, len(victims))
	var sum float64
	for _, d := range victims {
		v := d.Rate
		if hol > 0 {
			k := 0
			for _, p := range d.Paths {
				for _, lid := range p {
					if congested[lid] {
						k++
					}
				}
			}
			if k > 0 {
				v *= math.Pow(1-0.30*hol, math.Min(float64(k), 3))
			}
		}
		v *= math.Exp(-math.Abs(rng.NormFloat64()) * cfg.BWJitter)
		bw = append(bw, v)
		sum += v
	}
	sort.Float64s(bw)
	phase.Bandwidth = BWStats{
		Average: units.BytesPerSecond(sum / float64(len(bw))),
		P99:     units.BytesPerSecond(bw[int(float64(len(bw))*0.01)]),
		N:       len(bw),
	}
	// Latency stats: probes between random victim endpoints. Congestion
	// without CC inflates queueing; with CC it does not.
	lm := NewLatencyModel(f, rng)
	if hol > 0 {
		lm.QueueMean = units.Seconds(float64(lm.QueueMean) * (1 + 6*hol))
		lm.DeepQueueProb = math.Min(0.5, lm.DeepQueueProb*(1+10*hol))
	}
	var eps []int
	for _, n := range victimNodes {
		eps = append(eps, f.NodeEndpoints(n)...)
	}
	lat, err := lm.MeasureLatency(eps, cfg.LatencySamples)
	if err != nil {
		return GPCNeTPhase{}, err
	}
	phase.Latency = lat
	phase.Allreduce = lm.AllreduceLatency(len(victimNodes)*cfg.PPN, 400)
	return phase, nil
}
