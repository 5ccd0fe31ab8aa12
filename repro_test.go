package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

func TestFacadeFigures(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Rounds = 10

	res, err := Run(context.Background(), experiment.SpecFromConfig(cfg), RunOpts{LiarCounts: []int{2}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rows := res.Figures.Fig1.Table.Rows(); rows != 11 {
		t.Errorf("Fig1 rows = %d", rows)
	}
	if rows := res.Figures.Fig2.Table.Rows(); rows != 11 {
		t.Errorf("Fig2 rows = %d", rows)
	}
	if n := len(res.Figures.Fig3.Final); n != 1 {
		t.Errorf("Fig3 series = %d", n)
	}
}

func TestFacadeTrustParams(t *testing.T) {
	p := DefaultTrustParams()
	if p.Default != 0.4 || p.Gamma != 0.6 {
		t.Errorf("defaults = %+v", p)
	}
}

func TestFacadeFullStack(t *testing.T) {
	if testing.Short() {
		t.Skip("full stack run")
	}
	res, err := Run(context.Background(), fullStackSpec(1, 0, 4*time.Minute, 45*time.Second), RunOpts{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s := res.Trials[0].Suspects[0]; s.ConvictedAt < 0 || s.FalsePositive {
		t.Errorf("facade full stack did not convict: %+v", s)
	}
}

// fullStackSpec is the packet-level detection run of the facade test and
// the X1 benchmark: 16 nodes in a 500 m arena, a phantom link spoofer
// pinned beside the victim from attackAt, random-waypoint mobility
// between speed/2 and speed m/s (static at 0).
func fullStackSpec(seed int64, speed float64, duration, attackAt time.Duration) Scenario {
	spec := Scenario{
		Name:      "fullstack",
		Seed:      seed,
		Nodes:     16,
		ArenaSide: 500,
		Duration:  scenario.Dur(duration),
		Radio:     scenario.RadioSpec{Range: 200},
		Attacks: []scenario.AttackSpec{{
			Kind: "linkspoof", Node: 16, Mode: "phantom",
			At: scenario.Dur(attackAt), Pin: true, DropCtrl: true,
		}},
	}
	if speed > 0 {
		spec.Mobility = scenario.MobilitySpec{
			Model: "waypoint", MinSpeed: speed / 2, MaxSpeed: speed,
			Pause: scenario.DurPtr(5 * time.Second),
		}
	}
	return spec
}
