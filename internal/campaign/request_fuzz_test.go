package campaign

import (
	"bytes"
	"testing"

	"frontiersim/internal/machine"
)

// FuzzJobRequest drives the server's request edge — the strict JSON
// decode every endpoint uses, then resolve — on any body. It must never
// panic; a request it accepts must resolve to the same cache key again,
// and its machine, whether built in or inline, must stay inside the
// Spec.Validate ceilings. The seed corpus in testdata/fuzz/FuzzJobRequest
// holds a built-in machine, an inline spec, both at once, a missing
// experiment, and the largest seed.
func FuzzJobRequest(f *testing.F) {
	srv, err := New(Config{CodeVersion: "fuzz"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			return
		}
		res, err := srv.resolve(req)
		if err != nil {
			return
		}
		again, err := srv.resolve(req)
		if err != nil {
			t.Fatalf("request resolved once, then failed: %v", err)
		}
		if res.key != again.key {
			t.Fatalf("one request, two keys: %s and %s", res.key, again.key)
		}
		if err := res.spec.Validate(); err != nil {
			t.Fatalf("accepted machine fails validation: %v", err)
		}
		if n := res.spec.Nodes(); n < 1 || n > machine.MaxEndpoints {
			t.Fatalf("accepted machine has %d nodes", n)
		}
		tp := res.spec.Topology
		if tp.Kind == machine.Dragonfly && tp.ComputeGroups+tp.IOGroups+tp.MgmtGroups > machine.MaxGroups {
			t.Fatalf("accepted machine has %d+%d+%d groups", tp.ComputeGroups, tp.IOGroups, tp.MgmtGroups)
		}
	})
}
