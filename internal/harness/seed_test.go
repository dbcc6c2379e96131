package harness

import (
	"testing"

	"frontiersim/internal/rng"
)

func TestDeriveSeedStable(t *testing.T) {
	// Pin a few values: these must never change, or recorded experiment
	// output would silently shift between releases.
	if got := DeriveSeed(42, "fig6"); got != DeriveSeed(42, "fig6") {
		t.Fatal("DeriveSeed not deterministic")
	}
	pins := map[string]int64{
		"fig6":   DeriveSeed(42, "fig6"),
		"table5": DeriveSeed(42, "table5"),
	}
	for id, want := range pins {
		for i := 0; i < 3; i++ {
			if got := DeriveSeed(42, id); got != want {
				t.Errorf("DeriveSeed(42, %q) unstable: %d then %d", id, want, got)
			}
		}
	}
}

func TestDeriveSeedSeparates(t *testing.T) {
	seen := map[int64]string{}
	ids := []string{"table1", "table2", "table3", "fig3", "fig6", "sec54", "a", "b", ""}
	for _, root := range []int64{0, 1, 42, -7, 1 << 40} {
		for _, id := range ids {
			s := DeriveSeed(root, id)
			key := string(rune(root)) + "/" + id
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision: %q and %q both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
	// Nearby roots must not produce nearby (correlated) seeds.
	a, b := DeriveSeed(1, "fig6"), DeriveSeed(2, "fig6")
	if a == b {
		t.Error("adjacent roots collide")
	}
}

func TestSplitmix64KnownVectors(t *testing.T) {
	// Reference outputs of the canonical SplitMix64 for state 0 and 1
	// (Vigna's splitmix64.c): the avalanche DeriveSeed applies last.
	if got := rng.Mix64(0); got != 0xE220A8397B1DCDAF {
		t.Errorf("Mix64(0) = %#x", got)
	}
	if got := rng.Mix64(1); got != 0x910A2DEC89025CC1 {
		t.Errorf("Mix64(1) = %#x", got)
	}
}

// Golden pin for the per-task stream kind: the exact seed DeriveSeed
// mints for a representative (root, task id) pair and the first eight
// draws of the stream built from it. The parallel mpiGraph census and
// every harness.Run task depend on these bytes; a change here
// regenerates all archived parallel-run output.
func TestDeriveSeedGoldenStream(t *testing.T) {
	const want = int64(-1975129890762566520)
	seed := DeriveSeed(1, "shift-0")
	if seed != want {
		t.Fatalf("DeriveSeed(1, %q) = %d, want %d", "shift-0", seed, want)
	}
	wantDraws := []int64{
		5544761946064857892, 7774142375774094946, 4695053013839927019,
		6224281827607522564, 6802127634966381766, 2731662979664408826,
		100731775826796461, 3440786779877549178,
	}
	r := rng.New(seed)
	for i, w := range wantDraws {
		if got := r.Int63(); got != w {
			t.Errorf("task stream draw %d = %d, want %d", i, got, w)
		}
	}
}
