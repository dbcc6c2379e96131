package network

import (
	"math"
	"math/rand"
	"sort"

	"frontiersim/internal/fabric"
	"frontiersim/internal/units"
)

// LatencyModel samples small-message latencies on a fabric: fixed
// endpoint and switch costs from the fabric config plus an exponential
// queueing term per switch traversal. A fraction of packets take Valiant
// routes (Slingshot routes per packet), which is what stretches the tail
// the paper reports (2.6 µs average, 4.8 µs at the 99th percentile).
type LatencyModel struct {
	F *fabric.Fabric
	// QueueMean is the mean of the per-switch exponential queueing term
	// under benchmark background load.
	QueueMean units.Seconds
	// ValiantFraction is the probability a packet is routed
	// non-minimally.
	ValiantFraction float64
	// DeepQueueProb is the per-switch probability of meeting a deep
	// buffer occupancy (a transient burst); DeepQueueMean is the extra
	// delay's mean. This is what produces the ~2x gap between average
	// and 99th-percentile latency in Table 5.
	DeepQueueProb float64
	DeepQueueMean units.Seconds
	// Rng drives sampling.
	Rng *rand.Rand
}

// NewLatencyModel returns a model with Slingshot-calibrated queueing.
func NewLatencyModel(f *fabric.Fabric, rng *rand.Rand) *LatencyModel {
	return &LatencyModel{
		F:               f,
		QueueMean:       90 * units.Nanosecond,
		ValiantFraction: 0.25,
		DeepQueueProb:   0.03,
		DeepQueueMean:   0.85 * units.Microsecond,
		Rng:             rng,
	}
}

// SamplePair samples one small-message latency between two endpoints.
func (m *LatencyModel) SamplePair(src, dst int) (units.Seconds, error) {
	var path []int
	var err error
	if m.F.Kind != fabric.FatTree && m.Rng.Float64() < m.ValiantFraction {
		path, err = m.valiant(src, dst)
	}
	if path == nil {
		path, err = m.F.MinimalPath(src, dst, m.Rng)
	}
	if err != nil {
		return 0, err
	}
	lat := m.F.PathLatency(path)
	for _, id := range path {
		if m.F.Links[id].Kind == fabric.Ejection {
			continue
		}
		lat += units.Seconds(m.Rng.ExpFloat64() * float64(m.QueueMean))
		if m.Rng.Float64() < m.DeepQueueProb {
			lat += units.Seconds(m.Rng.ExpFloat64() * float64(m.DeepQueueMean))
		}
	}
	return lat, nil
}

func (m *LatencyModel) valiant(src, dst int) ([]int, error) {
	g1, g2 := m.F.EndpointGroup(src), m.F.EndpointGroup(dst)
	if g1 == g2 {
		return nil, nil // intra-group traffic is always minimal
	}
	total := m.F.Cfg.TotalGroups()
	for attempt := 0; attempt < 8; attempt++ {
		via := m.Rng.Intn(total)
		if via == g1 || via == g2 || m.F.GroupClassOf(via) != fabric.ComputeGroup {
			continue
		}
		if p, err := m.F.ValiantPath(src, dst, via, m.Rng); err == nil {
			return p, nil
		}
	}
	return nil, nil
}

// LatencyStats summarises a latency sample set.
type LatencyStats struct {
	Average units.Seconds
	P99     units.Seconds
	Max     units.Seconds
	N       int
}

// MeasureLatency samples n random-pair latencies among the given
// endpoints and returns summary statistics (GPCNeT's "RR Two-sided Lat").
func (m *LatencyModel) MeasureLatency(endpoints []int, n int) (LatencyStats, error) {
	if len(endpoints) < 2 {
		return LatencyStats{}, errTooFewEndpoints
	}
	if n < 1 {
		return LatencyStats{}, errNoSamples
	}
	samples := make([]float64, 0, n)
	var sum float64
	for len(samples) < n {
		a := endpoints[m.Rng.Intn(len(endpoints))]
		b := endpoints[m.Rng.Intn(len(endpoints))]
		if a == b {
			continue
		}
		lat, err := m.SamplePair(a, b)
		if err != nil {
			continue // failed component; GPCNeT would re-pair
		}
		samples = append(samples, float64(lat))
		sum += float64(lat)
	}
	sort.Float64s(samples)
	return LatencyStats{
		Average: units.Seconds(sum / float64(len(samples))),
		P99:     units.Seconds(samples[int(math.Min(float64(len(samples)-1), float64(len(samples))*0.99))]),
		Max:     units.Seconds(samples[len(samples)-1]),
		N:       len(samples),
	}, nil
}

// AllreduceLatency models an 8-byte allreduce across P ranks as a
// latency-bound dissemination tree: ceil(log2 P) stages, each costing one
// average network hop plus software overhead. GPCNeT's "Multiple
// Allreduce" across its 15,040 victim ranks measures 51.5 µs,
// ~14 stages × ~3.6 µs.
func (m *LatencyModel) AllreduceLatency(ranks int, trials int) LatencyStats {
	if ranks < 2 {
		return LatencyStats{N: 0}
	}
	stages := int(math.Ceil(math.Log2(float64(ranks))))
	const stageOverhead = 1450 * units.Nanosecond // rendezvous + reduction op
	base := 2*m.F.Cfg.EndpointLatency + 4*m.F.Cfg.SwitchLatency
	samples := make([]float64, 0, trials)
	var sum float64
	for t := 0; t < trials; t++ {
		var lat units.Seconds
		for s := 0; s < stages; s++ {
			jitter := units.Seconds(m.Rng.ExpFloat64() * float64(m.QueueMean))
			lat += base + stageOverhead + jitter
		}
		samples = append(samples, float64(lat))
		sum += float64(lat)
	}
	sort.Float64s(samples)
	return LatencyStats{
		Average: units.Seconds(sum / float64(len(samples))),
		P99:     units.Seconds(samples[int(math.Min(float64(len(samples)-1), float64(len(samples))*0.99))]),
		Max:     units.Seconds(samples[len(samples)-1]),
		N:       len(samples),
	}
}

var (
	errTooFewEndpoints = errorString("network: need at least two endpoints")
	errNoSamples       = errorString("network: need at least one latency sample")
)

type errorString string

func (e errorString) Error() string { return string(e) }
