package cache

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"frontiersim/internal/machine"
)

func key(s string) Key {
	return ResultKey(KeyInputs{SpecJSON: []byte(s), Seed: 42, Experiment: "fig6", CodeVersion: "test"})
}

func TestHitMiss(t *testing.T) {
	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("result"), nil }

	b, outcome, err := c.GetOrCompute(key("a"), compute)
	if err != nil || string(b) != "result" || outcome != Miss {
		t.Fatalf("first get: %q %v %v, want result/miss/nil", b, outcome, err)
	}
	b, outcome, err = c.GetOrCompute(key("a"), compute)
	if err != nil || string(b) != "result" || outcome != Hit {
		t.Fatalf("second get: %q %v %v, want result/hit/nil", b, outcome, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", s)
	}
}

// TestCoalescing drives N concurrent identical submissions through one
// slow computation: exactly one runs, the rest wait on it. Run under
// -race, this is also the cache's concurrency-safety test.
func TestCoalescing(t *testing.T) {
	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var computes atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, outcome, err := c.GetOrCompute(key("shared"), func() ([]byte, error) {
				if computes.Add(1) == 1 {
					close(started)
				}
				<-gate // hold the computation open so the others pile onto it
				return []byte("slow result"), nil
			})
			if err != nil || string(b) != "slow result" {
				t.Errorf("get %d: %q %v", i, b, err)
			}
			outcomes[i] = outcome
		}(i)
	}
	<-started // one computation is in flight; release it
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computation ran %d times for %d identical submissions, want 1", got, n)
	}
	var misses, coalesced, hits int
	for _, o := range outcomes {
		switch o {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		case Hit:
			hits++
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1 (got %d coalesced, %d hits)", misses, coalesced, hits)
	}
	if misses+coalesced+hits != n {
		t.Fatalf("outcomes don't add up: %d+%d+%d != %d", misses, coalesced, hits, n)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(30, "") // room for three 10-byte results
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("0123456789")
	get := func(k string) Outcome {
		_, outcome, err := c.GetOrCompute(key(k), func() ([]byte, error) { return val, nil })
		if err != nil {
			t.Fatal(err)
		}
		return outcome
	}
	get("a")
	get("b")
	get("c")
	if s := c.Stats(); s.Bytes != 30 || s.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 entries / 30 bytes", s)
	}
	get("a") // touch a: now b is least recently used
	get("d") // over budget: evicts b
	if o := get("a"); o != Hit {
		t.Fatalf("a was evicted (outcome %v), want it retained (recently used)", o)
	}
	if o := get("b"); o != Miss {
		t.Fatalf("b outcome %v, want miss (LRU victim)", o)
	}
	s := c.Stats()
	if s.Evictions < 1 {
		t.Fatalf("stats = %+v, want at least one eviction", s)
	}
	if s.Bytes > 30 {
		t.Fatalf("cache holds %d bytes, budget is 30", s.Bytes)
	}
}

func TestOversizedEntryNotRetained(t *testing.T) {
	c, err := New(10, "")
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 100)
	b, outcome, err := c.GetOrCompute(key("big"), func() ([]byte, error) { return big, nil })
	if err != nil || outcome != Miss || len(b) != 100 {
		t.Fatalf("oversized get: %d bytes, %v, %v", len(b), outcome, err)
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("oversized entry was retained: %+v", s)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.GetOrCompute(key("failing"), func() ([]byte, error) { calls++; return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("get %d: err = %v, want boom", i, err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed computation ran %d times, want 2 (errors must not be cached)", calls)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := c1.GetOrCompute(key("persist"), func() ([]byte, error) { return []byte("saved"), nil }); err != nil || outcome != Miss {
		t.Fatalf("initial compute: %v %v", outcome, err)
	}

	// A fresh cache over the same dir serves the result without computing.
	c2, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	b, outcome, err := c2.GetOrCompute(key("persist"), func() ([]byte, error) {
		return nil, errors.New("must not recompute")
	})
	if err != nil || string(b) != "saved" || outcome != Hit {
		t.Fatalf("restart get: %q %v %v, want saved/hit/nil", b, outcome, err)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", s)
	}
}

// TestKeySensitivity pins the content address to its inputs: changing
// any one component — including a single machine.Spec field — changes
// the key, while re-deriving from identical inputs does not.
func TestKeySensitivity(t *testing.T) {
	spec := machine.Frontier()
	specJSON, err := machine.Dump(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := KeyInputs{SpecJSON: specJSON, Seed: 42, Experiment: "fig6", Quick: true, CodeVersion: "v1"}

	if ResultKey(base) != ResultKey(base) {
		t.Fatal("identical inputs produced different keys")
	}

	variant := spec
	variant.Topology.LinkRate /= 2
	variantJSON, err := machine.Dump(variant)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]KeyInputs{
		"spec field": {SpecJSON: variantJSON, Seed: 42, Experiment: "fig6", Quick: true, CodeVersion: "v1"},
		"seed":       {SpecJSON: specJSON, Seed: 43, Experiment: "fig6", Quick: true, CodeVersion: "v1"},
		"experiment": {SpecJSON: specJSON, Seed: 42, Experiment: "fig5", Quick: true, CodeVersion: "v1"},
		"quick":      {SpecJSON: specJSON, Seed: 42, Experiment: "fig6", Quick: false, CodeVersion: "v1"},
		"markdown":   {SpecJSON: specJSON, Seed: 42, Experiment: "fig6", Quick: true, Markdown: true, CodeVersion: "v1"},
		"version":    {SpecJSON: specJSON, Seed: 42, Experiment: "fig6", Quick: true, CodeVersion: "v2"},
	}
	seen := map[Key]string{ResultKey(base): "base"}
	for name, in := range mutations {
		k := ResultKey(in)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collided with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyFieldBoundaries pins the length-prefixing: shifting bytes
// between adjacent fields must not collide.
func TestKeyFieldBoundaries(t *testing.T) {
	a := ResultKey(KeyInputs{Experiment: "ab", CodeVersion: "c"})
	b := ResultKey(KeyInputs{Experiment: "a", CodeVersion: "bc"})
	if a == b {
		t.Fatal("field boundary collision between experiment and code version")
	}
}

func BenchmarkGetOrComputeHit(b *testing.B) {
	c, err := New(0, "")
	if err != nil {
		b.Fatal(err)
	}
	k := key("bench")
	payload := make([]byte, 4096)
	c.GetOrCompute(k, func() ([]byte, error) { return payload, nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, outcome, _ := c.GetOrCompute(k, nil); outcome != Hit {
			b.Fatal("expected hit")
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	c, err := New(100, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		k := key(fmt.Sprintf("entry-%d", i))
		c.GetOrCompute(k, func() ([]byte, error) { return []byte("xxxxxxxxxx"), nil })
		c.GetOrCompute(k, nil) // hit; nil compute must not be called
	}
	s := c.Stats()
	if s.Hits != 5 || s.Misses != 5 || s.Entries != 5 || s.Bytes != 50 || s.Budget != 100 {
		t.Fatalf("stats = %+v", s)
	}
}

// A compute that panics fails like one that returns an error: the
// leader and a waiter coalesced onto it both get an error instead of a
// panic or a hang, nothing is cached, and the next request computes
// afresh.
func TestPanickingComputeIsContained(t *testing.T) {
	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	started, gate := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(key("panics"), func() ([]byte, error) {
			close(started)
			<-gate
			panic("boom")
		})
		leader <- err
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(key("panics"), func() ([]byte, error) { return []byte("unused"), nil })
		waiter <- err
	}()
	for c.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(gate)
	for name, ch := range map[string]chan error{"leader": leader, "waiter": waiter} {
		if err := <-ch; err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s: err = %v, want the panic as an error", name, err)
		}
	}
	b, outcome, err := c.GetOrCompute(key("panics"), func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(b) != "ok" || outcome != Miss {
		t.Fatalf("after the panic: %q %v %v, want ok/miss/nil", b, outcome, err)
	}
}
