package experiment_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/experiment"
	"repro/internal/scenario"
)

// TestEntrypointsHonorCancellation drives every context-aware
// entrypoint under a canceled context — each must return an error and
// no result — and checks that a traced trial fan yields the same digests
// as an untraced one.
func TestEntrypointsHonorCancellation(t *testing.T) {
	cfg := experiment.DefaultConfig()
	cfg.Nodes, cfg.Liars, cfg.Rounds = 8, 2, 6
	spec := scenario.Spec{Name: "tiny", Seed: 3, Nodes: 4, Duration: scenario.Dur(5 * time.Second)}
	eng := experiment.NewRunner(cfg.Seed, 2)
	traceDir := filepath.Join(t.TempDir(), "traces")

	untraced, err := eng.ScenarioTrials(context.Background(), spec, 3, "")
	if err != nil {
		t.Fatalf("ScenarioTrials: %v", err)
	}
	traced, err := eng.ScenarioTrials(context.Background(), spec, 3, traceDir)
	if err != nil {
		t.Fatalf("traced ScenarioTrials: %v", err)
	}
	for i := range untraced {
		if untraced[i].Digest() != traced[i].Digest() {
			t.Errorf("trial %d digest diverges between traced and untraced runs", i)
		}
		if _, err := os.Stat(filepath.Join(traceDir, experiment.TraceFileName(i))); err != nil {
			t.Errorf("trial %d trace: %v", i, err)
		}
	}

	rounds, err := repro.ResolveScenario("paper-figures")
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// Each case reports whether it returned a result, and its error.
	for name, run := range map[string]func() (bool, error){
		"ScenarioTrials": func() (bool, error) {
			res, err := eng.ScenarioTrials(canceled, spec, 3, "")
			return res != nil, err
		},
		"ScenarioTrials traced": func() (bool, error) {
			res, err := eng.ScenarioTrials(canceled, spec, 3, t.TempDir())
			return res != nil, err
		},
		"Figures": func() (bool, error) {
			res, err := eng.Figures(canceled, cfg, []int{1})
			return res != nil, err
		},
		"repro.Run packet": func() (bool, error) {
			res, err := repro.Run(canceled, spec, repro.RunOpts{})
			return res != nil, err
		},
		"repro.Run rounds": func() (bool, error) {
			res, err := repro.Run(canceled, rounds, repro.RunOpts{})
			return res != nil, err
		},
		"scenario.RunContext": func() (bool, error) {
			res, err := scenario.RunContext(canceled, spec, nil)
			return res != nil, err
		},
	} {
		gotResult, err := run()
		if err == nil {
			t.Errorf("%s ignored a canceled context", name)
		}
		if gotResult {
			t.Errorf("%s returned a result under a canceled context", name)
		}
	}
}
