package experiment

import "testing"

func TestCIAccumulationAblation(t *testing.T) {
	for _, liars := range []int{1, 4, 7} {
		cfg := DefaultConfig()
		cfg.Liars = liars
		res := NewRunner(cfg.Seed, 0).CIAccumulationAblation(cfg)

		if res.CumulativeRound < 0 {
			t.Errorf("%d liars: cumulative CI never convicted within %d rounds", liars, cfg.Rounds)
		}
		// The cumulative policy must resolve no later than the single-round
		// policy (when the latter resolves at all).
		if res.SingleRound >= 0 && res.CumulativeRound > res.SingleRound {
			t.Errorf("%d liars: cumulative (round %d) slower than single-round (round %d)",
				liars, res.CumulativeRound, res.SingleRound)
		}
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
