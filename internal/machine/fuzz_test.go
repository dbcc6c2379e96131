package machine

import (
	"bytes"
	"testing"
)

// FuzzSpecDecode drives Decode, the strict parse and validation every
// spec file and every inline frontier-serve spec goes through. It must
// never panic; a spec it accepts must stay within the machine-size
// ceilings and survive Dump → Decode byte-identically. The seed corpus
// in testdata/fuzz holds the Dump of every canonical machine and two
// Frontier variants the ceilings exist for: 2^20 compute groups, and a
// switch count whose endpoint product wraps to zero behind a node-count
// override.
func FuzzSpecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		within(t, s)
		b, err := Dump(s)
		if err != nil {
			t.Fatalf("accepted spec does not dump: %v", err)
		}
		again, err := Decode(b)
		if err != nil {
			t.Fatalf("dump of an accepted spec is rejected: %v\n%s", err, b)
		}
		b2, err := Dump(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("Dump → Decode → Dump drifted:\n%s\nvs\n%s", b, b2)
		}
	})
}

// within re-derives the ceilings in float64, where the products of
// accepted int fields cannot wrap.
func within(t *testing.T, s Spec) {
	t.Helper()
	tp := s.Topology
	if n := s.Nodes(); n < 1 || n > MaxEndpoints {
		t.Fatalf("accepted spec has %d nodes", n)
	}
	f := func(v int) float64 { return float64(max(v, 0)) }
	var endpoints float64
	switch tp.Kind {
	case Dragonfly:
		groups := f(tp.ComputeGroups) + f(tp.IOGroups) + f(tp.MgmtGroups)
		if groups > MaxGroups {
			t.Fatalf("accepted spec has %v groups", groups)
		}
		endpoints = (f(tp.ComputeGroups)*f(tp.ComputeGroupSwitches) +
			(f(tp.IOGroups)+f(tp.MgmtGroups))*f(tp.TORGroupSwitches)) * f(tp.EndpointsPerSwitch)
	case FatTree:
		endpoints = f(tp.Leaves) * f(tp.EndpointsPerLeaf)
	}
	if endpoints > MaxEndpoints {
		t.Fatalf("accepted spec has %v endpoints", endpoints)
	}
}
