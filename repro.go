// Package repro is a from-scratch Go reproduction of
//
//	M. Alattar, F. Sailhan, J. Bourgeois,
//	"Trust-enabled Link Spoofing Detection in MANET",
//	WWASN @ IEEE ICDCS 2012 Workshops, pp. 237-244.
//
// It bundles, as one library:
//
//   - a deterministic discrete-event MANET simulator (event kernel,
//     mobility models, wireless medium) — internal/sim, mobility, radio;
//   - a complete RFC 3626 OLSR implementation with audit logging —
//     internal/olsr, wire, auditlog;
//   - the paper's log- and signature-based intrusion detector with
//     cooperative investigations — internal/signature, detect;
//   - the entropy-based trust system of §IV (Eq. 5–10) — internal/trust;
//   - the attacks of §II-B/§III-A (link spoofing ×3, black/gray hole,
//     storm, replay, liars) — internal/attack;
//   - the evaluation harness reproducing Figures 1–3 and the extension
//     experiments of DESIGN.md — internal/experiment;
//   - the declarative scenario subsystem (DESIGN.md §7): named presets,
//     JSON scenario files, and the golden regression corpus under
//     testdata/golden/ — internal/scenario.
//
// This root package is a thin facade over one context-aware entrypoint,
// Run — the same (Spec, RunOpts) surface the manetd campaign service
// (cmd/manetd, internal/campaign) exposes over HTTP. A §V configuration
// runs through it as experiment.SpecFromConfig(cfg). The full API lives
// in the internal packages; see README.md for a map.
package repro

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/trust"
)

// ScenarioConfig is the §V evaluation scenario configuration.
type ScenarioConfig = experiment.Config

// DefaultScenario returns the paper's §V setup: 16 nodes, 1 attacker,
// 4 liars, 25 investigation rounds.
func DefaultScenario() ScenarioConfig { return experiment.DefaultConfig() }

// TrustParams are the trust-system constants (Eq. 5–10).
type TrustParams = trust.Params

// DefaultTrustParams returns the calibrated constants used throughout the
// reproduction (see DESIGN.md §2 for the calibration rationale).
func DefaultTrustParams() TrustParams { return trust.DefaultParams() }

// RunOpts are the execution options of a Run call: trial count, worker
// pool bound, an optional seed override and the Figure-3 liar sweep for
// rounds-kind scenarios. It is the campaign service's option type — what
// a POST /v1/campaigns body carries is exactly what Run accepts.
type RunOpts = campaign.RunOpts

// RunResult is what Run produces. Exactly one of the two payloads is
// populated, by scenario kind: Trials for packet scenarios (one
// ScenarioResult per seeded trial, trial seeds via experiment.TrialSeed),
// Figures for rounds scenarios (the §V Figures 1–3 data).
type RunResult struct {
	// Spec is the executed scenario, after any RunOpts seed override.
	Spec Scenario
	// Trials holds the packet-kind results, one per trial.
	Trials []*ScenarioResult
	// Figures holds the rounds-kind results.
	Figures *experiment.FiguresResult
}

// Run executes one declarative scenario under ctx — the facade's single
// entrypoint, and the same execution path the manetd campaign service
// queues over HTTP. Packet-kind specs fan their trials out on the
// worker-pool engine; rounds-kind specs regenerate the paper's Figures
// 1–3. Cancellation is honored mid-simulation at event granularity;
// results are bit-identical at any worker count.
func Run(ctx context.Context, spec Scenario, opts RunOpts) (*RunResult, error) {
	if opts.Seed != nil {
		spec.Seed = *opts.Seed
	}
	eng := experiment.NewRunner(spec.Seed, opts.Workers)
	if spec.WithDefaults().Kind == scenario.KindRounds {
		cfg, err := experiment.ConfigFromSpec(spec)
		if err != nil {
			return nil, err
		}
		liarCounts := opts.LiarCounts
		if len(liarCounts) == 0 && spec.Rounds != nil {
			liarCounts = spec.Rounds.LiarCounts
		}
		if len(liarCounts) == 0 {
			liarCounts = experiment.DefaultLiarCounts()
		}
		figs, err := eng.Figures(ctx, cfg, liarCounts)
		if err != nil {
			return nil, err
		}
		return &RunResult{Spec: spec, Figures: figs}, nil
	}
	results, err := eng.ScenarioTrials(ctx, spec, opts.Trials, "")
	if err != nil {
		return nil, err
	}
	return &RunResult{Spec: spec, Trials: results}, nil
}

// Engine is the parallel experiment runner (DESIGN.md §6): a worker pool
// that fans sweep points and trials out across cores while keeping
// results bit-identical to a serial run, because no task reads a shared
// random stream. Sweeps that generate their own trials derive each task
// seed from (rootSeed, sweepID, pointIndex, trialIndex); config- and
// spec-typed runners (Figures, ScenarioTrials) are seeded by their
// config or spec.
type Engine = experiment.Runner

// NewEngine returns an Engine with the given root seed and worker count
// (workers <= 0 selects GOMAXPROCS).
func NewEngine(rootSeed int64, workers int) *Engine {
	return experiment.NewRunner(rootSeed, workers)
}

// Scenario is a declarative scenario specification (DESIGN.md §7): one
// data structure naming topology, mobility, radio, attack mix, trust
// configuration, duration and seed — loadable from JSON or constructed
// in code.
type Scenario = scenario.Spec

// ScenarioResult is the deterministic reduction of one scenario run; its
// Digest is the regression fingerprint pinned under testdata/golden/.
type ScenarioResult = scenario.Result

// ScenarioPresets returns the named, ready-to-run scenarios (baseline,
// linkspoof, blackhole, grayhole, wormhole, colluding, ...).
func ScenarioPresets() []Scenario { return scenario.Presets() }

// ResolveScenario returns the named preset, or loads a JSON spec file.
func ResolveScenario(name string) (Scenario, error) { return scenario.Resolve(name) }
