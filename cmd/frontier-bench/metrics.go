package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// endToEnd lists the metrics a user of the simulator sees, reported by
// every workload of an untraced run (BENCHMARK.json's end_to_end).
var endToEnd = []string{"setup_s", "wall_s", "cpu_s", "live_heap_mb", "latency_p50_ms"}

// layers are the buckets a traced run's CPU profile is folded into, named
// after the simulator's packages.
var layers = []string{
	"network.solve", "network.other", "fabric.paths", "fabric.build", "core", "machine",
	"scheduler", "job", "mpi", "sim", "workload", "resilience", "models", "report",
	"experiments", "harness", "campaign", "hash", "gc", "loadgen", "other",
}

// expIDs are the experiments whose wall time a traced run reports one by
// one: every experiment a batch workload names, plus the serve-only ones.
var expIDs = []string{
	"fig6", "table5", "ablation-routing", "ablation-cc", "ablation-ppn",
	"ext-year", "ext-operations", "ext-campaign", "ext-llm", "table1", "table6", "sec54",
}

// perLayer lists the metrics of a traced run (BENCHMARK.json's per_layer).
// Every workload reports all of them; a layer a workload does not reach
// reads 0.
func perLayer() []string {
	var names []string
	for _, l := range layers {
		names = append(names, l+".cpu_s")
	}
	names = append(names,
		"network.solution_hits", "network.solution_misses",
		"job.pricing_hits", "job.pricing_misses", "workload.jobs", "workload.interrupts",
		"harness.makespan_s", "harness.work_s", "harness.critical_s", "harness.idle_frac",
		"campaign.result_hits", "campaign.result_misses", "campaign.result_coalesced",
		"campaign.result_mb", "campaign.hit_handler_p50_ms",
		"gc.cycles", "gc.alloc_mb", "gc.pause_ms", "gc.rss_peak_mb",
		"loadgen.lag_p99_ms", "trace.overhead_frac",
	)
	for _, id := range expIDs {
		names = append(names, "exp."+id+"_s")
	}
	return names
}

// unitOf derives a metric's unit from its name's suffix. MB is 2^20 bytes,
// as gctrace prints it.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "count"
}

// measure is one reported number and the count of samples behind it.
type measure struct {
	name  string
	value float64
	n     int
}

// outcome is what one run of one workload found: its operations, the
// checks they failed, its metrics and its diagnostics.
type outcome struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	metrics   []measure // the reported set: endToEnd or perLayer()
	extra     []measure // diagnostics: printed and recorded, not in the result object
}

// op counts one attempted operation; a non-nil err fails it.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.failures = append(o.failures, err.Error())
	}
}

// opChecks counts one operation that fails if any of errs is non-nil.
func (o *outcome) opChecks(errs ...error) { o.op(errors.Join(errs...)) }

func (o *outcome) set(name string, v float64, n int) {
	o.metrics = append(o.metrics, measure{name, v, n})
}

func (o *outcome) note(name string, v float64, n int) {
	o.extra = append(o.extra, measure{name, v, n})
}

// complete orders o.metrics as names lists them, adding a 0 for any the
// run did not produce.
func (o *outcome) complete(names []string) {
	have := map[string]measure{}
	for _, m := range o.metrics {
		have[m.name] = m
	}
	o.metrics = o.metrics[:0]
	for _, name := range names {
		m, ok := have[name]
		if !ok {
			m = measure{name: name}
		}
		o.metrics = append(o.metrics, m)
	}
}

// print writes one "workload metric value unit n=samples" line per number.
func (o *outcome) print(w io.Writer) {
	for _, m := range append(append([]measure(nil), o.metrics...), o.extra...) {
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", o.workload, m.name, formatValue(m.value), unitOf(m.name), m.n)
	}
	fmt.Fprintf(w, "%s ops attempted=%d failed=%d\n", o.workload, o.attempted, o.failed)
}

func formatValue(v float64) string { return strconv.FormatFloat(finite(v), 'g', -1, 64) }

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it back.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	result
	Samples  map[string]int        `json:"samples"`
	Extra    map[string]jsonMetric `json:"extra,omitempty"`
	Failures []string              `json:"failures,omitempty"`
}

func jsonMetrics(ms []measure, prefix string, into map[string]jsonMetric) {
	for _, m := range ms {
		into[prefix+m.name] = jsonMetric{finite(m.value), unitOf(m.name)}
	}
}

func (o *outcome) record(seed int64, seconds float64, trace bool) record {
	r := record{
		Workload: o.workload, Seed: seed, Seconds: seconds, Trace: trace,
		result: result{
			Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
			Metrics: map[string]jsonMetric{},
		},
		Samples:  map[string]int{},
		Extra:    map[string]jsonMetric{},
		Failures: o.failures,
	}
	jsonMetrics(o.metrics, "", r.Metrics)
	jsonMetrics(o.extra, "", r.Extra)
	for _, m := range o.metrics {
		r.Samples[m.name] = m.n
	}
	return r
}

// resultOf folds the outcomes of one invocation into the final result
// object. A single workload's metrics keep their names; with several, each
// name is prefixed by its workload.
func resultOf(outs []*outcome) result {
	r := result{Metrics: map[string]jsonMetric{}}
	for _, o := range outs {
		r.Attempted += o.attempted
		r.Failed += o.failed
		prefix := ""
		if len(outs) > 1 {
			prefix = o.workload + "/"
		}
		jsonMetrics(o.metrics, prefix, r.Metrics)
	}
	r.Correct = r.Failed == 0
	return r
}

func marshalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Every value passed through finite, so only a bug gets here.
		panic(err)
	}
	return append(b, '\n')
}
