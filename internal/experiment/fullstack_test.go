package experiment

import (
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestMobilitySpecDigests pins the X1 run spec. The digests were
// recorded from the scenario language mobilitySpec replaced, so they
// hold the conversion itself, not just its determinism.
func TestMobilitySpecDigests(t *testing.T) {
	for _, c := range []struct {
		speed float64
		want  string
	}{
		{0, "2610e3d3611a275d"},
		{2, "41cdc1cb6556c223"},
	} {
		res, err := scenario.Run(mobilitySpec(1, c.speed))
		if err != nil {
			t.Fatalf("speed %v: %v", c.speed, err)
		}
		if got := res.Digest().Hash; got != c.want {
			t.Errorf("mobilitySpec(1, %v) digest = %s, want %s", c.speed, got, c.want)
		}
	}
}

// runSpoofer runs a static X1 spec with the attack moved to attackAt and
// returns the run with its spoofer.
func runSpoofer(t *testing.T, seed int64, duration, attackAt time.Duration, liars int) (*scenario.Result, scenario.Suspect) {
	t.Helper()
	spec := mobilitySpec(seed, 0)
	spec.Duration = scenario.Dur(duration)
	spec.Attacks[0].At = scenario.Dur(attackAt)
	spec.Liars = liars
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Suspects[0]
}

func TestRunFullStackStaticDetects(t *testing.T) {
	res, att := runSpoofer(t, 1, 3*time.Minute, 45*time.Second, 0)
	if att.ConvictedAt < 0 || att.FalsePositive {
		t.Fatalf("static full-stack run did not convict: %+v", att)
	}
	if delay := att.ConvictedAt - att.AttackAt; delay <= 0 || delay > 2*time.Minute {
		t.Errorf("detection delay = %v", delay)
	}
	if att.FinalTrust >= 0.4 {
		t.Errorf("spoofer trust = %v", att.FinalTrust)
	}
	if res.Ctrl.Sent == 0 {
		t.Error("no control traffic despite investigations")
	}
	if res.Frames.FramesSent == res.Ctrl.Sent {
		t.Error("no OLSR traffic")
	}
}

func TestRunFullStackWithLiars(t *testing.T) {
	if _, att := runSpoofer(t, 3, 4*time.Minute, 45*time.Second, 3); att.ConvictedAt < 0 || att.FalsePositive {
		t.Fatalf("liar run did not convict: %+v", att)
	}
}

func TestRunOverheadSweepGrows(t *testing.T) {
	pts := NewRunner(1, 0).OverheadSweep([]int{8, 16})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].OLSRMessages <= pts[0].OLSRMessages {
		t.Errorf("OLSR traffic did not grow with size: %+v", pts)
	}
	if pts[0].LogRecords == 0 || pts[1].LogRecords == 0 {
		t.Error("no log records collected")
	}
}

func TestRunBaselines(t *testing.T) {
	r := NewRunner(1, 0).Baselines()
	if !r.StormFlagged {
		t.Error("broadcast storm not flagged")
	}
	if !r.ReplayFlagged {
		t.Error("replay not flagged")
	}
	if r.DropTrustDamage <= 0 {
		t.Errorf("black hole caused no trust damage: %+v", r)
	}
}

func TestRunCISweep(t *testing.T) {
	pts := NewRunner(1, 0).CISweep([]float64{0.90, 0.99}, []int{5, 15, 45}, 0.25)
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	// Margin shrinks with n within one confidence level.
	byLevel := map[float64][]CIPoint{}
	for _, p := range pts {
		byLevel[p.Level] = append(byLevel[p.Level], p)
	}
	for cl, ps := range byLevel {
		for i := 1; i < len(ps); i++ {
			if ps[i].Margin >= ps[i-1].Margin {
				t.Errorf("cl=%v: margin did not shrink with n: %+v", cl, ps)
			}
		}
	}
	// Higher confidence level → wider margin at equal n.
	if byLevel[0.99][0].Margin <= byLevel[0.90][0].Margin {
		t.Error("margin not wider at higher confidence level")
	}
}

func TestRunAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Liars = 4
	res := NewRunner(cfg.Seed, 0).Ablation(cfg)
	// The trust-weighted system must converge much deeper than uniform
	// weighting, which stays pinned at the raw majority ratio.
	if res.FinalWeighted >= res.FinalUniform {
		t.Errorf("weighted %v not better than uniform %v", res.FinalWeighted, res.FinalUniform)
	}
	if res.FinalWeighted > -0.75 {
		t.Errorf("weighted final = %v, want <= -0.75", res.FinalWeighted)
	}
	if res.FinalUniform < -0.75 {
		t.Errorf("uniform final = %v; uniform weighting should not converge", res.FinalUniform)
	}
}

func TestMobilitySweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("mobility sweep is slow")
	}
	pts := NewRunner(1, 0).MobilitySweep(1, []float64{0})
	if len(pts) != 1 || pts[0].Runs != 1 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].Detected != 1 {
		t.Errorf("static run not detected: %+v", pts)
	}
}
