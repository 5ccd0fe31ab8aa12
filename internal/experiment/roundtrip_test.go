package experiment

import (
	"testing"

	"repro/internal/trust"
)

// TestConfigSpecRoundTrip pins the inverse pair a Config-typed caller of
// the facade depends on: ConfigFromSpec(SpecFromConfig(cfg)) == cfg, so a
// configuration routed through the spec-typed Run surface executes
// exactly as given.
func TestConfigSpecRoundTrip(t *testing.T) {
	lossless := DefaultConfig()
	lossless.NonAnswerProb = 0 // must survive via the explicit -1 convention

	custom := Config{
		Seed: 77, Nodes: 24, Liars: 6, Rounds: 40,
		NonAnswerProb:   0.25,
		InitialTrustMin: 0.2, InitialTrustMax: 0.8,
		Params: trust.DefaultParams(),
	}
	custom.Params.Default = 0.5

	for name, cfg := range map[string]Config{
		"default":  DefaultConfig(),
		"lossless": lossless,
		"custom":   custom,
	} {
		spec := SpecFromConfig(cfg)
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: SpecFromConfig(cfg) does not validate: %v", name, err)
		}
		back, err := ConfigFromSpec(spec)
		if err != nil {
			t.Fatalf("%s: ConfigFromSpec(SpecFromConfig(cfg)): %v", name, err)
		}
		if back != cfg {
			t.Errorf("%s: round trip diverged:\n got %+v\nwant %+v", name, back, cfg)
		}
	}
}

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
