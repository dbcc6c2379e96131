package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"frontiersim/internal/machine"
)

// Sweep varies one numeric machine.Spec field over an inclusive range:
// the what-if axis of a campaign. The textual DSL form is
//
//	linkRate: 100..200 step 25
//
// where the field is a dotted JSON path into the spec
// ("topology.linkRate") or, when unambiguous, just the leaf field name
// ("linkRate"). Values are in the spec's own base units (bytes/second,
// seconds, counts).
type Sweep struct {
	Field string  `json:"field"`
	From  float64 `json:"from"`
	To    float64 `json:"to"`
	Step  float64 `json:"step"`
}

// ParseSweep reads the DSL form "<field>: <from>..<to> step <step>".
func ParseSweep(s string) (Sweep, error) {
	var sw Sweep
	field, rng, ok := strings.Cut(s, ":")
	if !ok {
		return sw, fmt.Errorf("sweep %q: want \"<field>: <from>..<to> step <step>\"", s)
	}
	sw.Field = strings.TrimSpace(field)
	if sw.Field == "" {
		return sw, fmt.Errorf("sweep %q: empty field name", s)
	}
	span, stepStr, ok := strings.Cut(rng, "step")
	if !ok {
		return sw, fmt.Errorf("sweep %q: missing \"step <n>\"", s)
	}
	fromStr, toStr, ok := strings.Cut(span, "..")
	if !ok {
		return sw, fmt.Errorf("sweep %q: range wants \"<from>..<to>\"", s)
	}
	var err error
	if sw.From, err = strconv.ParseFloat(strings.TrimSpace(fromStr), 64); err != nil {
		return sw, fmt.Errorf("sweep %q: bad from value %q", s, strings.TrimSpace(fromStr))
	}
	if sw.To, err = strconv.ParseFloat(strings.TrimSpace(toStr), 64); err != nil {
		return sw, fmt.Errorf("sweep %q: bad to value %q", s, strings.TrimSpace(toStr))
	}
	if sw.Step, err = strconv.ParseFloat(strings.TrimSpace(stepStr), 64); err != nil {
		return sw, fmt.Errorf("sweep %q: bad step value %q", s, strings.TrimSpace(stepStr))
	}
	return sw, sw.check()
}

// maxSweepValues caps how many values one sweep may expand to, whatever
// a server allows per request, so a range can never expand without bound.
const maxSweepValues = 1 << 16

func (sw Sweep) check() error {
	if sw.Field == "" {
		return fmt.Errorf("sweep: empty field name")
	}
	for _, v := range []float64{sw.From, sw.To, sw.Step} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sweep %s: from, to and step must be finite (got %v..%v step %v)",
				sw.Field, sw.From, sw.To, sw.Step)
		}
	}
	if sw.Step <= 0 {
		return fmt.Errorf("sweep %s: step must be positive (got %v)", sw.Field, sw.Step)
	}
	if sw.To < sw.From {
		return fmt.Errorf("sweep %s: to %v is below from %v", sw.Field, sw.To, sw.From)
	}
	n := sw.count()
	if n > maxSweepValues {
		return fmt.Errorf("sweep %s: %v..%v step %v has %.0f values, over the limit of %d",
			sw.Field, sw.From, sw.To, sw.Step, n, maxSweepValues)
	}
	// The last value From+(n-1)*Step can round past To; near the top of
	// the float64 range that is +Inf.
	if last := sw.From + (n-1)*sw.Step; math.IsInf(last, 0) {
		return fmt.Errorf("sweep %s: %v..%v step %v overflows float64", sw.Field, sw.From, sw.To, sw.Step)
	}
	return nil
}

// count is the number of values in the inclusive range. The 1e-9 step
// tolerance keeps the upper bound included when (To-From)/Step lands a
// rounding error below an integer.
func (sw Sweep) count() float64 {
	return math.Floor((sw.To-sw.From)/sw.Step+1e-9) + 1
}

// Values expands the inclusive range as From + i*Step; computing each
// value from its index means a step too small to move a large bound
// cannot loop forever.
func (sw Sweep) Values() []float64 {
	if sw.check() != nil {
		return nil
	}
	vs := make([]float64, int(sw.count()))
	for i := range vs {
		vs[i] = sw.From + float64(i)*sw.Step
	}
	return vs
}

// Apply returns a copy of spec with the sweep field set to v, validated.
// It works on the spec's canonical JSON so "any numeric Spec field" is
// literally any numeric leaf of the JSON document: the mutated document
// goes back through machine.Decode — unknown fields rejected, 150.5 into
// an int field rejected — whose Spec.Validate gives the per-variant
// error when a value is out of range.
func (sw Sweep) Apply(spec machine.Spec, v float64) (machine.Spec, error) {
	b, err := machine.Dump(spec)
	if err != nil {
		return machine.Spec{}, err
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return machine.Spec{}, fmt.Errorf("sweep: re-reading spec %s: %w", spec.Name, err)
	}
	path, err := resolveFieldPath(doc, sw.Field)
	if err != nil {
		return machine.Spec{}, err
	}
	if err := setNumeric(doc, path, v); err != nil {
		return machine.Spec{}, err
	}
	mut, err := json.Marshal(doc)
	if err != nil {
		return machine.Spec{}, fmt.Errorf("sweep: re-encoding spec %s: %w", spec.Name, err)
	}
	out, err := machine.Decode(mut)
	if err != nil {
		return machine.Spec{}, fmt.Errorf("sweep %s = %v: %w", strings.Join(path, "."), v, err)
	}
	return out, nil
}

// resolveFieldPath turns the DSL field into a concrete path: a dotted
// path is followed literally; a bare leaf name is searched for across
// the whole document and must match exactly one numeric leaf.
func resolveFieldPath(doc map[string]any, field string) ([]string, error) {
	if strings.Contains(field, ".") {
		path := strings.Split(field, ".")
		if err := checkNumericAt(doc, path); err != nil {
			return nil, err
		}
		return path, nil
	}
	var matches [][]string
	findNumericLeaves(doc, nil, func(path []string, _ float64) {
		if strings.EqualFold(path[len(path)-1], field) {
			matches = append(matches, append([]string(nil), path...))
		}
	})
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return nil, fmt.Errorf("sweep: no numeric spec field named %q (numeric fields: %s)",
			field, strings.Join(NumericFields(doc), ", "))
	default:
		// The leaves were found in map order: sort so the message is
		// the same on every call.
		var opts []string
		for _, m := range matches {
			opts = append(opts, strings.Join(m, "."))
		}
		sort.Strings(opts)
		return nil, fmt.Errorf("sweep: field %q is ambiguous — use a dotted path: %s", field, strings.Join(opts, ", "))
	}
}

func checkNumericAt(doc map[string]any, path []string) error {
	cur := any(doc)
	for i, seg := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return fmt.Errorf("sweep: %s is not an object", strings.Join(path[:i], "."))
		}
		cur, ok = lookup(m, seg)
		if !ok {
			return fmt.Errorf("sweep: spec has no field %q (numeric fields: %s)",
				strings.Join(path[:i+1], "."), strings.Join(NumericFields(doc), ", "))
		}
	}
	if _, ok := cur.(float64); !ok {
		return fmt.Errorf("sweep: field %q is not numeric", strings.Join(path, "."))
	}
	return nil
}

// lookup finds a key case-insensitively (exact match wins).
func lookup(m map[string]any, key string) (any, bool) {
	if v, ok := m[key]; ok {
		return v, true
	}
	for k, v := range m {
		if strings.EqualFold(k, key) {
			return v, true
		}
	}
	return nil, false
}

func setNumeric(doc map[string]any, path []string, v float64) error {
	cur := doc
	for _, seg := range path[:len(path)-1] {
		next, ok := lookup(cur, seg)
		if !ok {
			return fmt.Errorf("sweep: spec has no field %q", strings.Join(path, "."))
		}
		cur, ok = next.(map[string]any)
		if !ok {
			return fmt.Errorf("sweep: %s is not an object", seg)
		}
	}
	leaf := path[len(path)-1]
	key := leaf
	if _, ok := cur[key]; !ok {
		for k := range cur {
			if strings.EqualFold(k, leaf) {
				key = k
				break
			}
		}
	}
	cur[key] = v
	return nil
}

// findNumericLeaves walks the document depth-first, visiting every
// numeric leaf with its dotted path. Arrays are skipped: sweeping inside
// a failure-class list has no stable address.
func findNumericLeaves(v any, path []string, visit func(path []string, val float64)) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			findNumericLeaves(child, append(path, k), visit)
		}
	case float64:
		if len(path) > 0 {
			visit(path, t)
		}
	}
}

// NumericFields lists every sweepable (numeric) dotted path in the
// document, sorted — the vocabulary error messages offer back to the
// caller.
func NumericFields(doc map[string]any) []string {
	var fields []string
	findNumericLeaves(doc, nil, func(path []string, _ float64) {
		fields = append(fields, strings.Join(path, "."))
	})
	sort.Strings(fields)
	return fields
}

// SpecNumericFields lists the sweepable paths of a spec.
func SpecNumericFields(spec machine.Spec) ([]string, error) {
	b, err := machine.Dump(spec)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	return NumericFields(doc), nil
}
