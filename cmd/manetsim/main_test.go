package main

import (
	"strings"
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

// TestScenarioRejectsFlagModeFlags: a -scenario run takes its topology
// and attack from the spec, so a flag-mode option next to it is a usage
// error naming the flag rather than a silently ignored setting.
func TestScenarioRejectsFlagModeFlags(t *testing.T) {
	for _, f := range [][2]string{
		{"nodes", "40"}, {"speed", "2"}, {"duration", "1m"},
		{"attack-at", "10s"}, {"attack", "claim"}, {"liars", "2"},
	} {
		err := run([]string{"-scenario", "baseline", "-" + f[0], f[1]})
		if err == nil || !strings.HasPrefix(err.Error(), "-"+f[0]+" ") {
			t.Errorf("-scenario baseline -%s %s: err = %v, want a usage error naming -%s", f[0], f[1], err, f[0])
		}
	}
}
