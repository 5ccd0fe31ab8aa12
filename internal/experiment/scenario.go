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

// ScenarioTrials fans trials independent runs of the spec onto the pool,
// with per-trial seeds from TrialSeed. Cancellation is cooperative:
// undispatched trials are abandoned once ctx is done, and running trials
// abort at the kernel's next verdict-poll step (scenario.RunContext).
//
// A non-empty traceDir turns the run-trace plane on: each trial streams
// its events to traceDir/TraceFileName(i), and the directory is created
// if needed. Trials still fan across the pool — traces are per-trial
// files, so parallelism cannot interleave them, and each file is
// byte-identical at any worker count (the per-run tracer ordinal is a
// total order over that run alone). Tracing is pure observation: the
// results are the same with or without it.
func (r *Runner) ScenarioTrials(ctx context.Context, spec scenario.Spec, trials int, traceDir string) ([]*scenario.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if trials <= 0 {
		trials = 1
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiment: trace dir: %w", err)
		}
	}
	type outcome struct {
		res *scenario.Result
		err error
	}
	results, err := mapTasksCtx(ctx, r.workerCount(), trials, func(i int) outcome {
		s := spec
		s.Seed = TrialSeed(spec.Seed, i)
		if traceDir == "" {
			res, err := scenario.RunContext(ctx, s, nil)
			return outcome{res, err}
		}
		res, err := runTraced(ctx, s, filepath.Join(traceDir, TraceFileName(i)))
		return outcome{res, err}
	})
	if err != nil {
		return nil, err
	}
	out := make([]*scenario.Result, trials)
	for i, o := range results {
		if o.err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, o.err)
		}
		out[i] = o.res
	}
	return out, nil
}

// TraceFileName names trial i's NDJSON trace within a campaign's trace
// directory. One function so the engine's writer and any reader
// (reprotrace walkthroughs, CI smoke) agree on the layout.
func TraceFileName(trial int) string { return fmt.Sprintf("trial-%03d.ndjson", trial) }

// runTraced runs one spec with its run trace streamed to a new NDJSON
// file at path.
func runTraced(ctx context.Context, spec scenario.Spec, path string) (*scenario.Result, error) {
	f, err := os.Create(path) //nolint:gosec // operator-supplied directory
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

// ScenarioMatrix runs every spec once on the pool and returns the
// digests in spec order — the golden-corpus regeneration primitive.
func (r *Runner) ScenarioMatrix(specs []scenario.Spec) ([]scenario.Digest, error) {
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	type outcome struct {
		d   scenario.Digest
		err error
	}
	results := mapTasks(r.workerCount(), len(specs), func(i int) outcome {
		res, err := scenario.Run(specs[i])
		if err != nil {
			return outcome{err: err}
		}
		return outcome{d: res.Digest()}
	})
	out := make([]scenario.Digest, len(specs))
	for i, o := range results {
		if o.err != nil {
			return nil, fmt.Errorf("scenario %q: %w", specs[i].Name, o.err)
		}
		out[i] = o.d
	}
	return out, nil
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

// SpecFromConfig is the inverse of ConfigFromSpec: it renders a §V
// round-based configuration as the equivalent rounds-kind scenario spec,
// so a Config-typed caller can run through the spec-typed campaign
// surface (repro.Run). The conversion is exact for every
// configuration ConfigFromSpec can produce — the round trip
// ConfigFromSpec(SpecFromConfig(cfg)) == cfg is pinned by test — with
// one degenerate exception: an all-zero initial-trust range decays to
// the default range, which no real configuration uses.
func SpecFromConfig(cfg Config) scenario.Spec {
	rs := &scenario.RoundsSpec{
		Rounds:          cfg.Rounds,
		InitialTrustMin: cfg.InitialTrustMin,
		InitialTrustMax: cfg.InitialTrustMax,
	}
	// RoundsSpec convention: 0 = "experiment default", negative =
	// explicitly lossless. A Config carries the resolved probability, so
	// an explicit 0 must survive as -1.
	if cfg.NonAnswerProb > 0 {
		rs.NonAnswerProb = cfg.NonAnswerProb
	} else {
		rs.NonAnswerProb = -1
	}
	p := cfg.Params
	return scenario.Spec{
		Name:   "config",
		Kind:   scenario.KindRounds,
		Seed:   cfg.Seed,
		Nodes:  cfg.Nodes,
		Liars:  cfg.Liars,
		Trust:  &p,
		Rounds: rs,
	}
}
