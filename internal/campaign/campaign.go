// Package campaign is the long-running-service layer over the
// experiment engine (DESIGN.md §11): a Campaign is a batch of scenario
// runs — one Spec or a sweep of Specs, each repeated for a number of
// seeded trials — submitted by a tenant, queued, executed on a bounded
// worker pool, observable while running, and cancelable.
//
// The package is the library API behind cmd/manetd (the HTTP/JSON
// front-end) and the CLIs: a Manager keeps the campaigns in memory and
// owns the queue, per-tenant concurrency quotas and token-bucket rate
// limits, and graceful shutdown drains running campaigns before the
// process exits. One mutex, Manager.mu, guards all of that state,
// counters and latency histogram included.
//
// Determinism discipline carries over from the engine: run seeds are
// expanded at submit time through experiment.TrialSeed — the same
// function ScenarioTrials uses — so a campaign submitted over HTTP
// produces metrics digests byte-identical to a direct engine run of the
// same Specs and seeds, regardless of queue position, worker count or
// concurrent tenants.
package campaign

import (
	"time"

	"repro/internal/scenario"
)

// State is a campaign or run lifecycle state.
type State string

// Campaign and run states. A campaign is terminal in StateDone,
// StateFailed or StateCanceled; runs use the same names.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// RunOpts are the campaign-level execution options.
type RunOpts struct {
	// Trials is the number of seeded runs per spec (default 1). Trial
	// seeds follow experiment.TrialSeed: trial 0 keeps the spec's seed,
	// trial i > 0 derives an independent stream from it. Specs × trials
	// may not exceed MaxRuns.
	Trials int `json:"trials,omitempty"`
	// Workers bounds the run-level pool inside this campaign (<= 0 takes
	// the manager's default).
	Workers int `json:"workers,omitempty"`
	// Seed, when non-nil, overrides every spec's embedded seed before
	// trial expansion — one knob to reseed a whole sweep.
	Seed *int64 `json:"seed,omitempty"`
}

// Run is one (spec, trial) cell of a campaign.
type Run struct {
	// Index is the run's position in the campaign (spec-major order:
	// all trials of spec 0, then spec 1, ...).
	Index int `json:"index"`
	// Scenario is the spec name the run executes.
	Scenario string `json:"scenario"`
	// Trial is the trial index within the spec.
	Trial int `json:"trial"`
	// Seed is the fully-resolved run seed (experiment.TrialSeed).
	Seed  int64 `json:"seed"`
	State State `json:"state"`
	// Digest is the run's metrics-digest hash (scenario.Digest.Hash) and
	// Canonical the digest text it covers — byte-identical to what a
	// direct engine run of the same spec and seed produces.
	Digest    string `json:"digest,omitempty"`
	Canonical string `json:"canonical,omitempty"`
	Error     string `json:"error,omitempty"`
	// ElapsedMS is the run's wall-clock cost in milliseconds.
	ElapsedMS float64 `json:"elapsedMs,omitempty"`
	// Allocs is the process-wide malloc delta observed across the run,
	// read from runtime.MemStats.Mallocs. Exact when runs execute one at
	// a time (the smoke configuration); an upper bound when runs overlap.
	Allocs uint64 `json:"allocs,omitempty"`
	// TraceEvents is how many run-trace events the run emitted (0 when
	// the spec requested no trace). The NDJSON itself is held out of the
	// campaign snapshot — GET /v1/campaigns/{id}?trace=1&run=N streams it
	// — so List/Get payloads stay small.
	TraceEvents uint64 `json:"traceEvents,omitempty"`
	// trace is the run's recorded NDJSON (nil when untraced). Unexported:
	// served by the streaming endpoint, never marshaled into snapshots.
	trace []byte
}

// Trace returns the run's recorded NDJSON trace (nil when the spec
// requested none). The slice is append-only after the run finishes;
// callers must not mutate it.
func (r *Run) Trace() []byte { return r.trace }

// Campaign is a submitted batch of scenario runs.
type Campaign struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Specs are the scenarios of the sweep, in submission order. They
	// are immutable after Submit; snapshots share them.
	Specs []scenario.Spec `json:"specs"`
	// Trials is the resolved per-spec trial count.
	Trials int `json:"trials"`
	// Workers is the campaign's requested run-level pool bound (0 = the
	// manager default).
	Workers int `json:"workers,omitempty"`
	// Runs holds one entry per (spec, trial), spec-major.
	Runs []Run `json:"runs"`
	// RunsDone counts terminal runs — the progress numerator.
	RunsDone int    `json:"runsDone"`
	Error    string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
}

// Terminal reports whether the campaign has reached a final state.
func (c *Campaign) Terminal() bool { return c.State.Terminal() }

// Clone returns a snapshot safe to hand across goroutines: Runs are
// deep-copied (the manager mutates them as results land); Specs are
// shared, being immutable after submission.
func (c *Campaign) Clone() *Campaign {
	out := *c
	out.Runs = make([]Run, len(c.Runs))
	copy(out.Runs, c.Runs)
	if c.StartedAt != nil {
		t := *c.StartedAt
		out.StartedAt = &t
	}
	if c.FinishedAt != nil {
		t := *c.FinishedAt
		out.FinishedAt = &t
	}
	return &out
}
