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
	"repro/internal/trust"
)

// Arena is per-worker scratch memory (DESIGN.md §10): each pool worker
// owns one, and every task it claims reuses the same buffers instead of
// reallocating them trial after trial. Nothing handed out by an Arena
// may be retained past the task that requested it — the next trial on
// the same worker overwrites it. Determinism is unaffected: arenas hold
// no values across tasks (every getter returns a length-zero or fully
// overwritten slice), only capacity.
type Arena struct {
	obs     []trust.Observation
	samples []float64
}

// Observations returns an empty observation buffer with capacity for at
// least n entries.
func (a *Arena) Observations(n int) []trust.Observation {
	if cap(a.obs) < n {
		a.obs = make([]trust.Observation, 0, n)
	}
	return a.obs[:0]
}

// Samples returns an empty float64 buffer with capacity for at least n
// entries.
func (a *Arena) Samples(n int) []float64 {
	if cap(a.samples) < n {
		a.samples = make([]float64, 0, n)
	}
	return a.samples[:0]
}

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
// results in index order. Tasks are claimed from an atomic counter, so the
// pool stays busy even when task costs are skewed; because results land at
// their own index and every task is self-seeded, scheduling order cannot
// influence the output.
func mapTasks[T any](workers, n int, fn func(int) T) []T {
	return mapTasksArena(workers, n, func(i int, _ *Arena) T { return fn(i) })
}

// mapTasksArena is mapTasks with per-worker arenas: each goroutine owns
// one Arena for its lifetime, so a worker's trials reuse the same
// scratch buffers back to back. Because results are index-addressed and
// arenas carry capacity but never values between tasks, the output is
// still bit-identical for any worker count.
func mapTasksArena[T any](workers, n int, fn func(int, *Arena) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var a Arena
		for i := range out {
			out[i] = fn(i, &a)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var a Arena
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i, &a)
			}
		}()
	}
	wg.Wait()
	return out
}

// mapTasksCtx is mapTasks with cooperative cancellation: workers stop
// claiming tasks once ctx is done, and the call reports ctx's error if
// any task went unclaimed. Tasks already started run to completion —
// aborting mid-task is fn's job (the packet-scenario runners thread the
// same ctx into scenario.RunContext, which polls it every simulated
// 500ms). On a clean completion the result slice is exactly what
// mapTasks would have produced: cancellation can only truncate a
// campaign, never perturb the runs that finished.
func mapTasksCtx[T any](ctx context.Context, workers, n int, fn func(int) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i] = fn(i)
		}
		return out, nil
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
				done.Add(1)
			}
		}()
	}
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
