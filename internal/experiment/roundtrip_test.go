package experiment

import (
	"testing"
)

// TestTrialSeedContract pins the seed schedule both the engine and the
// campaign service derive run seeds from: trial 0 is the spec seed
// verbatim, later trials are derived, distinct, and stable.
func TestTrialSeedContract(t *testing.T) {
	if got := TrialSeed(42, 0); got != 42 {
		t.Errorf("TrialSeed(42, 0) = %d, want the spec seed", got)
	}
	seen := map[int64]int{42: 0}
	for i := 1; i < 32; i++ {
		s := TrialSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("TrialSeed(42, %d) collides with trial %d", i, prev)
		}
		seen[s] = i
		if again := TrialSeed(42, i); again != s {
			t.Errorf("TrialSeed(42, %d) unstable: %d then %d", i, s, again)
		}
	}
}
