package main

import (
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestFlagSpecDigest pins the flag-mode spec at the default flags. The
// digest was recorded from the scenario language flagSpec replaced, so
// it holds the mapping itself, not just its determinism.
func TestFlagSpecDigest(t *testing.T) {
	spec, err := flagSpec(1, 16, 0, 4*time.Minute, time.Minute, "phantom", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Digest().Hash, "2610e3d3611a275d"; got != want {
		t.Errorf("default flag spec digest = %s, want %s", got, want)
	}
}

func TestFlagSpecAttackModes(t *testing.T) {
	for _, mode := range []string{"phantom", "claim", "omit"} {
		spec, err := flagSpec(1, 8, 0, time.Minute, 20*time.Second, mode, 0)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(spec.Attacks) != 1 || spec.Attacks[0].Mode != mode || spec.Attacks[0].Node != 8 {
			t.Errorf("%s: attacks = %+v", mode, spec.Attacks)
		}
	}
	spec, err := flagSpec(1, 8, 0, time.Minute, 20*time.Second, "none", 0)
	if err != nil || len(spec.Attacks) != 0 {
		t.Errorf("-attack none: attacks %+v, err %v", spec.Attacks, err)
	}
	if _, err := flagSpec(1, 8, 0, time.Minute, 20*time.Second, "bogus", 0); err == nil {
		t.Error("unknown -attack accepted")
	}
}
