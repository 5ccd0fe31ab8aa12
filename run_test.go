package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

// TestRunPacketSpec drives the unified entrypoint on a packet scenario
// and checks it matches the engine it wraps, trial for trial.
func TestRunPacketSpec(t *testing.T) {
	spec := Scenario{Name: "tiny", Seed: 5, Nodes: 4, Duration: scenario.Dur(5 * time.Second)}
	res, err := Run(context.Background(), spec, RunOpts{Trials: 3, Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Trials) != 3 || res.Figures != nil {
		t.Fatalf("packet Run: %d trials, figures %v", len(res.Trials), res.Figures)
	}
	direct, err := experiment.NewRunner(spec.Seed, 2).ScenarioTrials(context.Background(), spec, 3, "")
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	for i := range direct {
		if res.Trials[i].Digest() != direct[i].Digest() {
			t.Errorf("trial %d digest diverges from the engine", i)
		}
	}

	// A seed override reseeds the run and is reflected in the result spec.
	seed := int64(91)
	res2, err := Run(context.Background(), spec, RunOpts{Seed: &seed})
	if err != nil {
		t.Fatalf("Run with seed override: %v", err)
	}
	if res2.Spec.Seed != seed {
		t.Errorf("override: result spec seed %d, want %d", res2.Spec.Seed, seed)
	}
	if res2.Trials[0].Digest() == res.Trials[0].Digest() {
		t.Error("override: digest unchanged by a different seed")
	}
}

// TestRunRoundsSpec drives the rounds branch: figures come back and the
// liar sweep resolves spec > default.
func TestRunRoundsSpec(t *testing.T) {
	cfg := experiment.DefaultConfig()
	cfg.Nodes, cfg.Liars, cfg.Rounds = 8, 2, 6
	spec := paperRounds(t)
	spec.Nodes, spec.Liars, spec.Rounds.Rounds = 8, 2, 6
	spec.Rounds.LiarCounts = nil

	def, err := Run(context.Background(), spec, RunOpts{})
	if err != nil {
		t.Fatalf("Run without a liar sweep: %v", err)
	}
	if got, want := len(def.Figures.Fig3.Final), len(experiment.DefaultLiarCounts()); got != want {
		t.Errorf("Fig3 series without a spec sweep = %d, want the %d default liar counts", got, want)
	}

	spec.Rounds.LiarCounts = []int{1, 2}
	res, err := Run(context.Background(), spec, RunOpts{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Figures == nil || res.Trials != nil {
		t.Fatalf("rounds Run: figures %v, %d trials", res.Figures, len(res.Trials))
	}
	if res.Figures.Fig1 == nil || res.Figures.Fig2 == nil || res.Figures.Fig3 == nil {
		t.Fatal("rounds Run: incomplete figures")
	}
	if got := len(res.Figures.Fig3.Final); got != 2 {
		t.Errorf("Fig3 series = %d, want the 2 requested liar counts", got)
	}

	// The preset, edited like cfg, agrees with the experiment package's
	// direct runners on cfg.
	eng := experiment.NewRunner(cfg.Seed, 0)
	if got, want := res.Figures.Fig1.Table.Render(), eng.Fig1(cfg).Table.Render(); got != want {
		t.Errorf("Fig1 through Run diverges from the direct runner:\n%s\nwant\n%s", got, want)
	}
	if got, want := res.Figures.Fig3.Table.Render(), eng.Fig3(cfg, []int{1, 2}).Table.Render(); got != want {
		t.Errorf("Fig3 through Run diverges from the direct runner:\n%s\nwant\n%s", got, want)
	}
}

// TestRunHonorsCancellation checks both branches unwind on a canceled
// context.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	packet := Scenario{Name: "tiny", Seed: 1, Nodes: 4, Duration: scenario.Dur(5 * time.Second)}
	if _, err := Run(ctx, packet, RunOpts{}); err == nil {
		t.Error("packet Run ignored a canceled context")
	}
	if _, err := Run(ctx, paperRounds(t), RunOpts{}); err == nil {
		t.Error("rounds Run ignored a canceled context")
	}
}
