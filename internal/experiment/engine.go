// Worker-pool experiment engine (DESIGN.md §6).
//
// Every experiment in this package decomposes into independent tasks —
// one per (sweep, point, trial) triple — and the Runner fans those tasks
// out across a bounded pool of goroutines. Determinism is preserved by
// construction: no task reads a shared random stream. Instead each task
// derives its own seed by hashing (rootSeed, sweepID, pointIndex,
// trialIndex) with scenario.DeriveSeed, so the numbers a task draws
// depend only on its coordinates, never on which worker ran it or in
// which order. Results are written into an index-addressed slice, making
// the collected output bit-identical whether the pool has 1 worker or 64.

package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/scenario"
)

// Runner executes experiment tasks on a worker pool. The zero value is
// ready to use: RootSeed 0 and as many workers as GOMAXPROCS. A Runner is
// stateless between calls and safe for concurrent use.
type Runner struct {
	// RootSeed is the root of the seed-derivation tree for runners that
	// generate their own trials (CISweep, MobilitySweep, OverheadSweep):
	// each such task's seed is scenario.DeriveSeed(RootSeed, sweep, point,
	// trial). Runners parameterized by a scenario config (Fig1–Fig3,
	// Figures, Ablation, CIAccumulationAblation) or a spec
	// (ScenarioTrials, ScenarioMatrix) take their seed from it instead, so
	// a given Config or Spec reproduces the same run on any runner;
	// Baselines seeds its single run from RootSeed directly.
	RootSeed int64
	// Workers bounds the goroutine pool; <= 0 means GOMAXPROCS.
	Workers int
}

// NewRunner returns a Runner with the given root seed and worker count
// (workers <= 0 selects GOMAXPROCS).
func NewRunner(rootSeed int64, workers int) *Runner {
	return &Runner{RootSeed: rootSeed, Workers: workers}
}

// workerCount resolves the effective pool size.
func (r *Runner) workerCount() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// TaskSeed derives the seed for one (sweep, point, trial) task under this
// runner's root seed.
func (r *Runner) TaskSeed(sweep string, point, trial int) int64 {
	var root int64
	if r != nil {
		root = r.RootSeed
	}
	return scenario.DeriveSeed(root, sweep, point, trial)
}

// mapTasks runs fn(0..n-1) on up to workers goroutines and returns the
// results in index order (see mapTasksCtx, which it calls with a context
// that is never done).
func mapTasks[T any](workers, n int, fn func(int) T) []T {
	out, _ := mapTasksCtx(context.Background(), workers, n, fn)
	return out
}

// mapTasksCtx is the engine's worker pool. It runs fn(0..n-1) on up to
// workers goroutines (the caller's among them) and returns the results
// in index order. Tasks are claimed from an atomic counter, so the pool
// stays busy even when task costs are skewed; because results land at
// their own index and every task is self-seeded, scheduling order cannot
// influence the output.
//
// Cancellation is cooperative: workers stop claiming tasks once ctx is
// done, and the call reports ctx's error if any task went unclaimed.
// Tasks already started run to completion — aborting mid-task is fn's
// job (the packet-scenario runners thread the same ctx into
// scenario.RunContext, which polls it every simulated 500ms). On a clean
// completion the result slice is the same at any worker count:
// cancellation can only truncate a campaign, never perturb the runs that
// finished.
func mapTasksCtx[T any](ctx context.Context, workers, n int, fn func(int) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	workers = max(1, min(workers, n))
	var next, done atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			out[i] = fn(i)
			done.Add(1)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if int(done.Load()) < n {
		// Tasks only go unclaimed on cancellation, so ctx.Err() is
		// non-nil here.
		return nil, ctx.Err()
	}
	return out, nil
}

// ForEachContext runs fn for every index in [0, n) on the pool, with
// cooperative cancellation (see mapTasksCtx for the exact semantics). It
// is the untyped convenience over mapTasksCtx for callers that collect
// results themselves (into index-addressed storage — never via shared
// mutable state, which would reintroduce schedule dependence).
func (r *Runner) ForEachContext(ctx context.Context, n int, fn func(i int)) error {
	_, err := mapTasksCtx(ctx, r.workerCount(), n, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
	return err
}
