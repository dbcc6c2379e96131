package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestVerifyAllPass(t *testing.T) {
	if testing.Short() {
		t.Skip("verify sweep in -short mode")
	}
	results := VerifyContext(context.Background(), quickOpts(), RunConfig{})
	if len(results) != len(Registry()) {
		t.Fatalf("results = %d, want %d", len(results), len(Registry()))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
		}
		if !r.Pass {
			t.Errorf("%s: FAIL (worst %.1f%%, envelope %.0f%%)", r.ID, r.WorstDeviation*100, r.Envelope*100)
		}
		if r.String() == "" {
			t.Errorf("%s: empty formatting", r.ID)
		}
	}
	if !AllPass(results) {
		t.Error("AllPass should be true")
	}
}

func TestVerifyResultFormatting(t *testing.T) {
	pass := VerifyResult{ID: "x", WorstDeviation: 0.05, Envelope: 0.1, Pass: true}
	if !strings.Contains(pass.String(), "PASS") {
		t.Error("pass row should say PASS")
	}
	fail := VerifyResult{ID: "y", WorstDeviation: 0.5, Envelope: 0.1}
	if !strings.Contains(fail.String(), "FAIL") {
		t.Error("fail row should say FAIL")
	}
	noEnv := VerifyResult{ID: "z", Pass: true}
	if !strings.Contains(noEnv.String(), "no numeric") {
		t.Error("envelope-free row should say so")
	}
	if AllPass([]VerifyResult{pass, fail}) {
		t.Error("AllPass with a failure should be false")
	}
}

func TestEnvelopesCoverPaperArtifacts(t *testing.T) {
	envs := Envelopes()
	// Every paper table/figure must have an envelope (the ablations and
	// extensions may be informational).
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"fig3", "fig4", "fig5", "fig6", "sec431", "sec432", "sec51", "sec54"} {
		if envs[id] <= 0 {
			t.Errorf("paper artifact %s has no reproduction envelope", id)
		}
	}
	for id := range envs {
		if _, err := ByID(id); err != nil {
			t.Errorf("envelope for unknown experiment %s", id)
		}
	}
}
