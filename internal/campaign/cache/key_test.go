package cache

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestResultKeyGolden pins two keys, so a change to the pre-image
// encoding, which would orphan every persisted result, cannot pass
// unnoticed.
func TestResultKeyGolden(t *testing.T) {
	for _, c := range []struct {
		in   KeyInputs
		want Key
	}{
		{KeyInputs{SpecJSON: []byte(`{"name":"frontier"}`), Seed: -7, Experiment: "fig6", Quick: true, CodeVersion: "v1"},
			"a51666a0c5eccb0b5b0ecad2534cda3090a485d7d4e268cb42e9ca6b34ec7bd4"},
		{KeyInputs{}, "eb142b0cae0baa72a767ebc0823d1be94e14c5bfc52d8e417fc4302fceb6240c"},
	} {
		if got := ResultKey(c.in); got != c.want {
			t.Errorf("ResultKey(%+v) = %s, want %s", c.in, got, c.want)
		}
	}
}

// decodePreimage parses a pre-image back into its inputs; ok is false
// unless p is exactly one well-formed encoding. Decoding every pre-image
// back to the inputs that made it proves the encoding injective.
func decodePreimage(p []byte) (in KeyInputs, ok bool) {
	field := func() ([]byte, bool) {
		if len(p) < 8 {
			return nil, false
		}
		n := binary.LittleEndian.Uint64(p)
		p = p[8:]
		if n > uint64(len(p)) {
			return nil, false
		}
		b := p[:n]
		p = p[n:]
		return b, true
	}
	spec, ok := field()
	if !ok || len(p) < 8 {
		return in, false
	}
	in.SpecJSON = spec
	in.Seed = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	exp, ok := field()
	if !ok || len(p) < 2 || p[0] > 1 || p[1] > 1 {
		return in, false
	}
	in.Experiment = string(exp)
	in.Quick, in.Markdown = p[0] == 1, p[1] == 1
	p = p[2:]
	ver, ok := field()
	if !ok || len(p) != 0 {
		return in, false
	}
	in.CodeVersion = string(ver)
	return in, true
}

func sameInputs(a, b KeyInputs) bool {
	return bytes.Equal(a.SpecJSON, b.SpecJSON) && a.Seed == b.Seed && a.Experiment == b.Experiment &&
		a.Quick == b.Quick && a.Markdown == b.Markdown && a.CodeVersion == b.CodeVersion
}

// FuzzResultKey checks the result-cache key's pre-image: every pre-image
// decodes back to exactly the inputs that made it, and two inputs share
// a pre-image (and so a key) only when they are equal. The checked-in
// corpus holds the field-boundary shifts a naive concatenation would
// collide on.
func FuzzResultKey(f *testing.F) {
	f.Add([]byte(`{"name":"frontier"}`), int64(42), "fig6", true, false, "v1",
		[]byte(`{"name":"frontier"}`), int64(42), "fig6", false, true, "v1")
	f.Fuzz(func(t *testing.T, specA []byte, seedA int64, expA string, quickA, mdA bool, verA string,
		specB []byte, seedB int64, expB string, quickB, mdB bool, verB string) {
		a := KeyInputs{SpecJSON: specA, Seed: seedA, Experiment: expA, Quick: quickA, Markdown: mdA, CodeVersion: verA}
		b := KeyInputs{SpecJSON: specB, Seed: seedB, Experiment: expB, Quick: quickB, Markdown: mdB, CodeVersion: verB}
		pa, pb := keyPreimage(a), keyPreimage(b)
		for _, c := range []struct {
			in KeyInputs
			p  []byte
		}{{a, pa}, {b, pb}} {
			got, ok := decodePreimage(c.p)
			if !ok || !sameInputs(got, c.in) {
				t.Fatalf("pre-image of %+v decodes to %+v (ok %v)", c.in, got, ok)
			}
		}
		if same := sameInputs(a, b); same != bytes.Equal(pa, pb) {
			t.Fatalf("inputs equal %v but pre-images equal %v:\n%+v\n%+v", same, !same, a, b)
		}
		if sameInputs(a, b) != (ResultKey(a) == ResultKey(b)) {
			t.Fatalf("keys disagree with inputs:\n%+v\n%+v", a, b)
		}
	})
}
