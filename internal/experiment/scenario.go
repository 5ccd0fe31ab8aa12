package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// Scenario execution on the parallel engine. A single scenario is one
// engine task (the discrete-event kernel inside is single-threaded by
// design); campaigns — trial fans, preset matrices — parallelize across
// runs, with every trial's seed derived from the root of the seed tree
// so results are bit-identical at any worker count.

// scenarioTrialID tags per-trial scenario seeds in the DeriveSeed tree.
const scenarioTrialID = "scenario-trial"

// TrialSeed maps a campaign trial index to its run seed: trial 0 keeps
// the spec's own seed verbatim — a 1-trial campaign is reproducible as
// the first trial of a larger one — and trial i > 0 runs with
// scenario.DeriveSeed(spec.Seed, "scenario-trial", 0, i). Every campaign
// surface (ScenarioTrials here, the campaign service's run expansion,
// manetsim -trials) derives trial seeds through this one function, which
// is what makes a campaign submitted over HTTP byte-identical to a
// direct engine run.
func TrialSeed(specSeed int64, trial int) int64 {
	if trial <= 0 {
		return specSeed
	}
	return scenario.DeriveSeed(specSeed, scenarioTrialID, 0, trial)
}

// Scenarios is the engine's one batch path for packet scenarios: it
// validates every spec, runs each once on the pool and returns the
// Results in spec order. Cancellation is cooperative: undispatched runs
// are abandoned once ctx is done, and running ones abort at the
// kernel's next verdict-poll step (scenario.RunContext).
//
// A non-nil tracePath turns the run-trace plane on: run i streams its
// events to a new NDJSON file at tracePath(i), whose directory is
// created if needed. Runs still fan across the pool — traces are
// per-run files, so parallelism cannot interleave them, and each file is
// byte-identical at any worker count (the per-run tracer ordinal is a
// total order over that run alone). Tracing is pure observation: the
// results are the same with or without it.
func (r *Runner) Scenarios(ctx context.Context, specs []scenario.Spec, tracePath func(i int) string) ([]*scenario.Result, error) {
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	type outcome struct {
		res *scenario.Result
		err error
	}
	results, err := mapTasksCtx(ctx, r.workerCount(), len(specs), func(i int) outcome {
		if tracePath == nil {
			res, err := scenario.RunContext(ctx, specs[i], nil)
			return outcome{res, err}
		}
		res, err := runTraced(ctx, specs[i], tracePath(i))
		return outcome{res, err}
	})
	if err != nil {
		return nil, err
	}
	out := make([]*scenario.Result, len(specs))
	for i, o := range results {
		if o.err != nil {
			return nil, fmt.Errorf("run %d (%s): %w", i, specs[i].Name, o.err)
		}
		out[i] = o.res
	}
	return out, nil
}

// runTraced runs one spec with its run trace streamed to a new NDJSON
// file at path.
func runTraced(ctx context.Context, spec scenario.Spec, path string) (*scenario.Result, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path) //nolint:gosec // operator-supplied path
	if err != nil {
		return nil, err
	}
	sink := trace.NewWriter(f)
	res, err := scenario.RunContext(ctx, spec, sink)
	if err == nil {
		err = sink.Err()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// ScenarioTrials fans trials (at least one) independent runs of the spec
// onto the pool through Scenarios, with per-trial seeds from TrialSeed.
// A non-empty traceDir streams trial i's trace to
// traceDir/TraceFileName(i).
func (r *Runner) ScenarioTrials(ctx context.Context, spec scenario.Spec, trials int, traceDir string) ([]*scenario.Result, error) {
	specs := make([]scenario.Spec, max(trials, 1))
	for i := range specs {
		specs[i] = spec
		specs[i].Seed = TrialSeed(spec.Seed, i)
	}
	var tracePath func(int) string
	if traceDir != "" {
		tracePath = func(i int) string { return filepath.Join(traceDir, TraceFileName(i)) }
	}
	return r.Scenarios(ctx, specs, tracePath)
}

// TraceFileName names trial i's NDJSON trace within a campaign's trace
// directory. One function so the engine's writer and any reader
// (reprotrace walkthroughs, CI smoke) agree on the layout.
func TraceFileName(trial int) string { return fmt.Sprintf("trial-%03d.ndjson", trial) }

// ScenarioMatrix runs every spec once, untraced, on the pool and returns
// the digests in spec order — the golden-corpus regeneration primitive.
func (r *Runner) ScenarioMatrix(specs []scenario.Spec) ([]scenario.Digest, error) {
	results, err := r.Scenarios(context.Background(), specs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]scenario.Digest, len(results))
	for i, res := range results {
		out[i] = res.Digest()
	}
	return out, nil
}

// sweepResults runs a sweep's specs untraced on the pool. A sweep builds
// its specs itself, so a run error is a programming bug and panics.
func (r *Runner) sweepResults(specs []scenario.Spec) []*scenario.Result {
	results, err := r.Scenarios(context.Background(), specs, nil)
	if err != nil {
		panic(err)
	}
	return results
}

// ErrNotRounds rejects a packet spec where a rounds one is needed.
var ErrNotRounds = errors.New("experiment: spec is not a rounds scenario")

// ConfigFromSpec converts a rounds-kind scenario spec into the §V
// round-based configuration behind Figures 1-3. Unset (zero) spec
// fields keep the DefaultConfig values; NonAnswerProb follows the
// convention documented on RoundsSpec (0 = default, negative =
// explicitly lossless).
func ConfigFromSpec(s scenario.Spec) (Config, error) {
	s = s.WithDefaults()
	if s.Kind != scenario.KindRounds || s.Rounds == nil {
		return Config{}, fmt.Errorf("%w: %q has kind %q", ErrNotRounds, s.Name, s.Kind)
	}
	cfg := DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Nodes = s.Nodes
	cfg.Liars = s.Liars
	if s.Rounds.Rounds > 0 {
		cfg.Rounds = s.Rounds.Rounds
	}
	switch {
	case s.Rounds.NonAnswerProb > 0:
		cfg.NonAnswerProb = s.Rounds.NonAnswerProb
	case s.Rounds.NonAnswerProb < 0:
		cfg.NonAnswerProb = 0
	}
	if s.Rounds.InitialTrustMax > 0 {
		cfg.InitialTrustMin = s.Rounds.InitialTrustMin
		cfg.InitialTrustMax = s.Rounds.InitialTrustMax
	}
	if s.Trust != nil {
		cfg.Params = *s.Trust
	}
	return cfg, nil
}
