package experiment

import "testing"

func TestCIAccumulationAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Liars = 4
	res := NewRunner(cfg.Seed, 0).CIAccumulationAblation(cfg)

	if res.CumulativeRound < 0 {
		t.Fatal("cumulative CI never convicted within 25 rounds")
	}
	// The cumulative policy must resolve no later than the single-round
	// policy (when the latter resolves at all).
	if res.SingleRound >= 0 && res.CumulativeRound > res.SingleRound {
		t.Errorf("cumulative (round %d) slower than single-round (round %d)",
			res.CumulativeRound, res.SingleRound)
	}
}

func TestCIAccumulationDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := NewRunner(cfg.Seed, 0).CIAccumulationAblation(cfg)
	b := NewRunner(cfg.Seed, 0).CIAccumulationAblation(cfg)
	if a != b {
		t.Errorf("nondeterministic ablation: %+v vs %+v", a, b)
	}
}
