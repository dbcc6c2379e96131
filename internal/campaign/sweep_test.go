package campaign

import (
	"math"
	"slices"
	"strings"
	"testing"

	"frontiersim/internal/machine"
)

func TestParseSweep(t *testing.T) {
	cases := []struct {
		in      string
		want    Sweep
		wantErr string
	}{
		{in: "linkRate: 100..200 step 25", want: Sweep{Field: "linkRate", From: 100, To: 200, Step: 25}},
		{in: "topology.linkRate: 1.25e10..2.5e10 step 6.25e9", want: Sweep{Field: "topology.linkRate", From: 1.25e10, To: 2.5e10, Step: 6.25e9}},
		{in: " endpointEfficiency : 0.5..0.9 step 0.2 ", want: Sweep{Field: "endpointEfficiency", From: 0.5, To: 0.9, Step: 0.2}},
		{in: "no colon here", wantErr: "want"},
		{in: "f: 1..2", wantErr: "step"},
		{in: "f: 1to2 step 1", wantErr: "range"},
		{in: "f: x..2 step 1", wantErr: "bad from"},
		{in: "f: 1..y step 1", wantErr: "bad to"},
		{in: "f: 1..2 step z", wantErr: "bad step"},
		{in: "f: 1..2 step 0", wantErr: "step must be positive"},
		{in: "f: 1..2 step -1", wantErr: "step must be positive"},
		{in: "f: 5..2 step 1", wantErr: "below from"},
		{in: ": 1..2 step 1", wantErr: "empty field"},
		// A step below the float spacing at 1e17 used to spin forever
		// in Values; an infinite bound used to expand until memory ran out.
		{in: "linkRate: 1e17..1.0000001e17 step 1", wantErr: "over the limit"},
		{in: "linkRate: 0..Inf step 1e9", wantErr: "finite"},
		{in: "linkRate: -Inf..0 step 1", wantErr: "finite"},
		{in: "linkRate: 0..1 step NaN", wantErr: "finite"},
		{in: "f: 0..65536 step 1", wantErr: "over the limit"},
		{in: "f: 0..65535 step 1", want: Sweep{Field: "f", From: 0, To: 65535, Step: 1}},
	}
	for _, c := range cases {
		got, err := ParseSweep(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseSweep(%q) err = %v, want containing %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSweep(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSweep(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestSweepValues(t *testing.T) {
	cases := []struct {
		sw   Sweep
		want []float64
	}{
		{Sweep{Field: "f", From: 100, To: 200, Step: 25}, []float64{100, 125, 150, 175, 200}},
		{Sweep{Field: "f", From: 1, To: 1, Step: 1}, []float64{1}},
		{Sweep{Field: "f", From: 0.1, To: 0.3, Step: 0.1}, []float64{0.1, 0.2, 0.3}}, // fp accumulation must not drop the bound
		{Sweep{Field: "f", From: 1, To: 2.5, Step: 1}, []float64{1, 2}},
		// Rejected ranges expand to nothing, and return at once.
		{Sweep{Field: "linkRate", From: 1e17, To: 1.0000001e17, Step: 1}, nil},
		{Sweep{Field: "linkRate", From: 0, To: math.Inf(1), Step: 1e9}, nil},
	}
	for _, c := range cases {
		got := c.sw.Values()
		if len(got) != len(c.want) {
			t.Errorf("%+v.Values() = %v, want %v", c.sw, got, c.want)
			continue
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9*math.Max(1, math.Abs(c.want[i])) {
				t.Errorf("%+v.Values()[%d] = %v, want %v", c.sw, i, got[i], c.want[i])
			}
		}
	}
	// The CI smoke sweep's three link rates stay bit-identical: they key
	// the variants' cached results.
	ci := Sweep{Field: "linkRate", From: 1.25e10, To: 2.5e10, Step: 6.25e9}.Values()
	if want := []float64{1.25e10, 1.875e10, 2.5e10}; !slices.Equal(ci, want) {
		t.Errorf("CI smoke sweep values = %v, want %v", ci, want)
	}
}

// FuzzParseSweep holds the sweep DSL to its contract on any input:
// ParseSweep never panics, and a sweep it accepts expands to between 1
// and maxSweepValues finite, non-decreasing values starting at From.
// The seed corpus in testdata/fuzz/FuzzParseSweep holds the CI smoke
// sweep and the two inputs that once hung or exhausted the server.
func FuzzParseSweep(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sw, err := ParseSweep(s)
		if err != nil {
			return
		}
		vs := sw.Values()
		if len(vs) < 1 || len(vs) > maxSweepValues {
			t.Fatalf("ParseSweep(%q) accepted a sweep of %d values, want 1..%d", s, len(vs), maxSweepValues)
		}
		if vs[0] != sw.From {
			t.Fatalf("ParseSweep(%q): first value %v, want From %v", s, vs[0], sw.From)
		}
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseSweep(%q): value %d is %v", s, i, v)
			}
			if i > 0 && v < vs[i-1] {
				t.Fatalf("ParseSweep(%q): value %d (%v) below value %d (%v)", s, i, v, i-1, vs[i-1])
			}
		}
	})
}

func TestSweepApply(t *testing.T) {
	spec := machine.Frontier()
	half := float64(spec.Topology.LinkRate) / 2

	// Bare leaf name resolves to the unique numeric field.
	sw := Sweep{Field: "linkRate", From: half, To: half, Step: 1}
	got, err := sw.Apply(spec, half)
	if err != nil {
		t.Fatal(err)
	}
	if float64(got.Topology.LinkRate) != half {
		t.Fatalf("linkRate = %v, want %v", got.Topology.LinkRate, half)
	}
	if got.Name != spec.Name || got.Nodes() != spec.Nodes() {
		t.Fatal("Apply must only change the swept field")
	}
	// The original is untouched.
	if spec.Topology.LinkRate == got.Topology.LinkRate {
		t.Fatal("Apply mutated its input spec")
	}

	// Dotted path form.
	if _, err := (Sweep{Field: "topology.linkRate"}).Apply(spec, half); err != nil {
		t.Fatalf("dotted path: %v", err)
	}

	// Integer fields accept integral values and reject fractional ones.
	if got, err := (Sweep{Field: "computeGroups"}).Apply(spec, 37); err != nil || got.Topology.ComputeGroups != 37 {
		t.Fatalf("computeGroups=37: %v (groups=%d)", err, got.Topology.ComputeGroups)
	}
	if _, err := (Sweep{Field: "computeGroups"}).Apply(spec, 37.5); err == nil {
		t.Fatal("fractional value into an integer field must fail")
	}

	// Out-of-range values surface Validate's error, naming the field.
	if _, err := (Sweep{Field: "linkRate"}).Apply(spec, 0); err == nil || !strings.Contains(err.Error(), "link rate") {
		t.Fatalf("linkRate=0 err = %v, want a link-rate validation error", err)
	}

	// A negative bundle count is rejected at decode time, before any
	// fabric is built from it.
	for _, field := range []string{"computeComputeLinks", "computeIOLinks", "ioMgmtLinks", "ioGroups", "torGroupSwitches"} {
		if _, err := (Sweep{Field: field}).Apply(spec, -1); err == nil {
			t.Errorf("%s=-1 was accepted, want a validation error", field)
		}
	}

	// A sweep that leaves the compute groups unjoined is rejected too.
	if _, err := (Sweep{Field: "computeComputeLinks"}).Apply(spec, 0); err == nil || !strings.Contains(err.Error(), "computeComputeLinks") {
		t.Errorf("computeComputeLinks=0 err = %v, want a validation error naming the field", err)
	}

	// Unknown fields name the vocabulary.
	_, err = (Sweep{Field: "warpDrive"}).Apply(spec, 1)
	if err == nil || !strings.Contains(err.Error(), "numeric fields") {
		t.Fatalf("unknown field err = %v, want the numeric-field vocabulary", err)
	}

	// Ambiguous bare names are rejected with the candidate paths.
	_, err = (Sweep{Field: "devicesPerNode"}).Apply(spec, 4)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous field err = %v, want ambiguity error", err)
	}

	// Non-numeric fields are rejected.
	_, err = (Sweep{Field: "topology.kind"}).Apply(spec, 1)
	if err == nil || !strings.Contains(err.Error(), "not numeric") {
		t.Fatalf("non-numeric field err = %v", err)
	}
}

// A sweep into the Orion dRAID geometry must surface Validate's error,
// naming the field, instead of handing the experiments a spec whose
// capacity tier prices as NaN (no data drives) or wider than its drives.
func TestSweepApplyRejectsImpossibleDRAID(t *testing.T) {
	spec := machine.Frontier()
	for _, c := range []struct {
		field string
		value float64
	}{
		{"storage.orion.ssu.Disk.Data", 0},
		{"storage.orion.ssu.Disk.Data", 300},
		{"storage.orion.ssu.Flash.Drives", 4},
	} {
		_, err := (Sweep{Field: c.field}).Apply(spec, c.value)
		group := strings.TrimPrefix(c.field, "storage.orion.")
		group = group[:strings.LastIndex(group, ".")]
		if err == nil || !strings.Contains(err.Error(), group) {
			t.Errorf("%s=%v err = %v, want a validation error naming %s", c.field, c.value, err, group)
		}
	}
}

// An ambiguous bare field name lists its candidate paths in a fixed
// order: the text reaches /v1/sweep error bodies, so it must not depend
// on map iteration.
func TestSweepAmbiguousFieldMessageIsStable(t *testing.T) {
	const want = `sweep: field "devicesPerNode" is ambiguous — use a dotted path: ` +
		`node.devicesPerNode, storage.nodeLocal.devicesPerNode`
	spec := machine.Frontier()
	for i := 0; i < 200; i++ {
		_, err := (Sweep{Field: "devicesPerNode"}).Apply(spec, 2)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want %q", i, err, want)
		}
	}
}

// FuzzSweepApply holds Sweep.Apply to its contract on Frontier for any
// field and value: the same call twice gives the same spec bytes or the
// same error text, and every spec it returns passes Validate. The seed
// corpus in testdata/fuzz/FuzzSweepApply covers a bare and a dotted
// field, an ambiguous, unknown, non-numeric and integer-only field, and
// a value Validate rejects.
func FuzzSweepApply(f *testing.F) {
	spec := machine.Frontier()
	f.Fuzz(func(t *testing.T, field string, v float64) {
		sw := Sweep{Field: field}
		a, errA := sw.Apply(spec, v)
		b, errB := sw.Apply(spec, v)
		if errA != nil || errB != nil {
			if errA == nil || errB == nil || errA.Error() != errB.Error() {
				t.Fatalf("Apply(%q, %v) errors differ between calls: %v / %v", field, v, errA, errB)
			}
			return
		}
		da, err := machine.Dump(a)
		if err != nil {
			t.Fatal(err)
		}
		db, err := machine.Dump(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(da) != string(db) {
			t.Fatalf("Apply(%q, %v) gave different specs on two calls", field, v)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Apply(%q, %v) returned a spec that fails Validate: %v", field, v, err)
		}
	})
}

func TestSpecNumericFields(t *testing.T) {
	fields, err := SpecNumericFields(machine.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"topology.linkRate", "topology.computeGroups", "node.memBW", "hpl.hbmPerGCD"}
	have := map[string]bool{}
	for _, f := range fields {
		have[f] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("SpecNumericFields missing %q (got %d fields)", w, len(fields))
		}
	}
	for i := 1; i < len(fields); i++ {
		if fields[i-1] > fields[i] {
			t.Fatalf("fields not sorted: %q before %q", fields[i-1], fields[i])
		}
	}
}
