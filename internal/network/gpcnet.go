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

// GPCNeTMinNodes is the fewest nodes GPCNeT runs on; the 80/20 split
// of ten nodes leaves two victims to form the victim ring.
const GPCNeTMinNodes = 10

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
	if cfg.Nodes < GPCNeTMinNodes {
		return nil, fmt.Errorf("network: GPCNeT needs at least %d nodes", GPCNeTMinNodes)
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
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	victimRing(s, f, victims, cfg, r, nil)
	if err := s.solveCached(solutions, topo); err != nil {
		return nil, err
	}
	isolated, err := measurePhase(f, cfg, s, len(s.keys), victims, r, 0, nil)
	if err != nil {
		return nil, err
	}
	// Congestor routes are drawn before the victims', but the victims
	// come first in the solve: they wait in a route set meanwhile.
	var cong routeSet
	buildCongestors(&cong, f, congestors, cfg, r)
	nVictims := victimRing(s, f, victims, cfg, r, &cong)
	cong.addTo(s)
	if err := s.solveCached(solutions, topo); err != nil {
		return nil, err
	}
	fork := *src
	var hot []bool
	out := make([]GPCNeTResult, len(cc))
	for i, on := range cc {
		*src = fork
		hol := 0.0 // with no congestor traffic there is nothing to block behind
		if len(cong.pairs) > 0 {
			hol = holFactor(cfg, on)
		}
		if hol > 0 && hot == nil {
			hot = holLinks(s, nVictims)
		}
		congested, err := measurePhase(f, cfg, s, nVictims, victims, r, hol, hot)
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

// holLinks marks, per link, where victims meet head-of-line
// blocking: links other than injection links that congestor traffic
// (the demands from index congestors on) crosses at more than 98% of
// capacity after the solve.
func holLinks(s *Solver, congestors int) []bool {
	links := s.fab.Links
	used := s.linkUse()
	hot := make([]bool, len(used))
	for _, li := range s.subLinks[s.subStart[s.demSub[congestors]]:] {
		if int(li) < len(links) && used[li]/s.linkCap[li] > 0.98 && links[li].Kind != fabric.Injection {
			hot[li] = true
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

// victimRing begins a problem in s and adds the victim random-ring
// bandwidth demands: rank r of victim i sends to rank r of the next
// victim in a shuffled ring. The arena is reserved for the victims plus
// the demands of later (nil for none), which join after them. It
// returns the number of victim demands; a pair with no route is
// skipped.
func victimRing(s *Solver, f *fabric.Fabric, victims []int, cfg GPCNeTConfig, rng *rand.Rand, later *routeSet) int {
	ring := append([]int(nil), victims...)
	rng.Shuffle(len(ring), func(i, j int) { ring[i], ring[j] = ring[j], ring[i] })
	n := len(ring) * cfg.PPN
	routes, routeLinks := routedBound(n, cfg.ValiantPaths)
	capped := routes
	if later != nil {
		n += len(later.pairs)
		routes += len(later.ends) - 1
		routeLinks += len(later.links)
	}
	s.begin(f, n, routes, routeLinks, capped)
	cap := victimCap(f, cfg)
	for i, node := range ring {
		next := ring[(i+1)%len(ring)]
		for r := 0; r < cfg.PPN; r++ {
			// An unroutable pair drops out of the ring.
			_ = s.addRouted(f.NodeEndpoint(node, r), f.NodeEndpoint(next, r), cap, cfg.ValiantPaths, rng)
		}
	}
	return len(s.keys)
}

// routeSet holds routed demands in generation order until they join a
// problem: GPCNeT draws its congestors' routes before its victims' but
// solves the victims first. Routes are CSR over links; pair p's routes
// are ends[pairs[p].first : pairs[p+1].first+1].
type routeSet struct {
	links []int
	ends  []int
	pairs []routedPair
}

type routedPair struct {
	src, dst, first int
}

// addRouted routes src→dst over its adaptive path set into the set. A
// pair with no route is skipped.
func (c *routeSet) addRouted(f *fabric.Fabric, src, dst, valiant int, rng *rand.Rand) {
	if c.ends == nil {
		c.ends = []int{0}
	}
	first := len(c.ends) - 1
	links, ends, err := f.AppendAdaptivePaths(c.links, c.ends, src, dst, valiant, rng)
	if err != nil {
		return
	}
	c.links, c.ends = links, ends
	c.pairs = append(c.pairs, routedPair{src, dst, first})
}

// addTo adds every held demand to s, uncapped, in generation order.
func (c *routeSet) addTo(s *Solver) {
	for p, pr := range c.pairs {
		end := len(c.ends) - 1
		if p+1 < len(c.pairs) {
			end = c.pairs[p+1].first
		}
		s.add(pr.src, pr.dst, 0, c.links, c.ends[pr.first:end+1])
	}
}

// buildCongestors routes the adversarial traffic into c: half the
// congestor ranks run a windowed all-to-all (random pairs), half run
// 16-to-1 incasts. Congestors are deliberately uncapped — with hardware
// CC the fabric itself pushes them back to their bottleneck share.
func buildCongestors(c *routeSet, f *fabric.Fabric, congestors []int, cfg GPCNeTConfig, rng *rand.Rand) {
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
				c.addRouted(f, f.NodeEndpoint(n, r), f.NodeEndpoint(peer, r), cfg.ValiantPaths, rng)
			}
		case 1: // incast: blocks of 16 nodes target the block leader
			leader := congestors[(i/16)*16]
			if leader == n {
				continue
			}
			c.addRouted(f, f.NodeEndpoint(n, 0), f.NodeEndpoint(leader, 0), cfg.ValiantPaths, rng)
		}
	}
}

// measurePhase extracts victim stats from a solved phase, whose first
// victims demands are the victims'. hol is the head-of-line blocking
// strength (0 for none) and hot marks the links where it applies; it
// may be nil when hol is 0.
func measurePhase(f *fabric.Fabric, cfg GPCNeTConfig, s *Solver, victims int, victimNodes []int, rng *rand.Rand, hol float64, hot []bool) (GPCNeTPhase, error) {
	var phase GPCNeTPhase
	// Bandwidth stats over victim ranks.
	bw := make([]float64, 0, victims)
	var sum float64
	for di := 0; di < victims; di++ {
		v := s.demRate[di]
		if hol > 0 {
			// A victim's routes are one run of subLinks; its cap
			// pseudo-links are never hot.
			k := 0
			for _, li := range s.subLinks[s.subStart[s.demSub[di]]:s.subStart[s.demSub[di+1]]] {
				if hot[li] {
					k++
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
