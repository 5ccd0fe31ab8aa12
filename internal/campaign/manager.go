package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Submission errors beyond the quota pair (limiter.go).
var (
	// ErrDraining rejects submissions while the manager shuts down.
	ErrDraining = errors.New("campaign: manager is draining")
	// ErrQueueFull rejects submissions when the campaign queue is at
	// capacity — global backpressure, as opposed to the per-tenant
	// quota.
	ErrQueueFull = errors.New("campaign: queue full")
	// ErrNotFound reports an unknown campaign ID.
	ErrNotFound = errors.New("campaign: not found")
	// ErrTerminal rejects canceling a campaign that already finished.
	ErrTerminal = errors.New("campaign: already in a terminal state")
	// ErrTooManyRuns rejects a campaign that expands to more than
	// MaxRuns runs.
	ErrTooManyRuns = errors.New("campaign: too many runs")
)

// MaxRuns caps the runs (specs × trials) one campaign may expand to.
// Submit allocates every run record up front and the trial count comes
// straight from a request body, so without a cap one submission could
// exhaust the service's memory.
const MaxRuns = 10000

// Config parameterizes a Manager. The zero value is usable: no quotas,
// GOMAXPROCS campaign executors.
type Config struct {
	// Quota bounds every tenant (per-tenant overrides can come later;
	// the wire format already carries the tenant).
	Quota Quota
	// CampaignWorkers bounds how many campaigns execute concurrently
	// (<= 0: GOMAXPROCS).
	CampaignWorkers int
	// RunWorkers bounds the run-level pool inside one campaign
	// (<= 0: GOMAXPROCS). A campaign's RunOpts.Workers lowers it
	// further for that campaign only.
	RunWorkers int
	// MaxQueue bounds queued-but-unstarted campaigns (<= 0: 4096).
	MaxQueue int
	// Now injects a clock for tests; nil selects time.Now.
	Now func() time.Time
}

// Manager owns the campaign lifecycle: Submit validates, applies
// quotas, expands (spec × trial) into seeded runs and queues the
// campaign; a bounded executor pool runs campaigns; Cancel aborts
// queued or running ones; Drain stops intake and waits for the queue to
// empty. All methods are safe for concurrent use.
type Manager struct {
	store   *MemStore
	quota   Quota
	limiter *limiter
	now     func() time.Time
	// run executes one scenario: scenario.RunContext, which tests replace
	// with a fake.
	run func(context.Context, scenario.Spec, trace.Sink) (*scenario.Result, error)

	runWorkers int
	queue      chan string

	baseCtx    context.Context
	baseCancel context.CancelFunc
	executorWG sync.WaitGroup // executor goroutines
	activeWG   sync.WaitGroup // campaigns from enqueue to terminal

	mu       sync.Mutex
	cancels  map[string]context.CancelFunc
	watchers map[string]map[chan struct{}]struct{}
	seq      atomic.Int64
	draining atomic.Bool

	// Counters behind Stats.
	queued        atomic.Int64
	running       atomic.Int64
	submitted     atomic.Uint64
	completed     atomic.Uint64
	failed        atomic.Uint64
	canceled      atomic.Uint64
	rateLimited   atomic.Uint64
	quotaRejected atomic.Uint64
	runs          atomic.Uint64
	lastRunAllocs atomic.Uint64
	tracedRuns    atomic.Uint64
	traceEvents   atomic.Uint64
	latency       histogram
}

// NewManager starts a manager and its executor pool.
func NewManager(cfg Config) *Manager {
	if cfg.CampaignWorkers <= 0 {
		cfg.CampaignWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.RunWorkers <= 0 {
		cfg.RunWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4096
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		store:      NewMemStore(),
		quota:      cfg.Quota,
		limiter:    newLimiter(cfg.Quota, cfg.Now),
		now:        cfg.Now,
		run:        scenario.RunContext,
		runWorkers: cfg.RunWorkers,
		queue:      make(chan string, cfg.MaxQueue),
		baseCtx:    ctx,
		baseCancel: cancel,
		cancels:    make(map[string]context.CancelFunc),
		watchers:   make(map[string]map[chan struct{}]struct{}),
	}
	m.executorWG.Add(cfg.CampaignWorkers)
	for i := 0; i < cfg.CampaignWorkers; i++ {
		go m.executor()
	}
	return m
}

// Submit validates the specs, applies the tenant's rate limit and
// concurrency quota, expands the runs, and queues the campaign. The
// returned snapshot is the queued state; poll Get or subscribe with
// Watch for progress. Rounds-kind specs are rejected — the campaign
// plane serves packet scenarios, whose runs reduce to metrics digests.
func (m *Manager) Submit(tenant string, specs []scenario.Spec, opts RunOpts) (*Campaign, error) {
	if m.draining.Load() {
		return nil, ErrDraining
	}
	if len(specs) == 0 {
		return nil, errors.New("campaign: no specs")
	}
	for i := range specs {
		if opts.Seed != nil {
			specs[i].Seed = *opts.Seed
		}
		if specs[i].WithDefaults().Kind != scenario.KindPacket {
			return nil, fmt.Errorf("campaign: spec %q: only packet-kind scenarios run as campaigns (rounds figures go through the repro facade)", specs[i].Name)
		}
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Trials <= 0 {
		opts.Trials = 1
	}
	if opts.Trials > MaxRuns/len(specs) { // specs × trials > MaxRuns, without overflow
		return nil, fmt.Errorf("%w: %d specs × %d trials exceeds %d", ErrTooManyRuns, len(specs), opts.Trials, MaxRuns)
	}

	// The submit path is serialized so the quota check and the insert
	// are atomic with respect to other submissions. The draining flag is
	// re-checked under the lock: Close quiesces the queue by acquiring
	// this mutex once after setting the flag.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining.Load() {
		return nil, ErrDraining
	}
	if err := m.limiter.allow(tenant); err != nil {
		m.rateLimited.Add(1)
		return nil, err
	}
	if m.quota.MaxActive > 0 && m.store.ActiveCount(tenant) >= m.quota.MaxActive {
		m.quotaRejected.Add(1)
		return nil, ErrQuotaExceeded
	}

	c := &Campaign{
		ID:          fmt.Sprintf("c-%06d", m.seq.Add(1)),
		Tenant:      tenant,
		State:       StateQueued,
		Specs:       specs,
		Trials:      opts.Trials,
		Workers:     opts.Workers,
		SubmittedAt: m.now(),
	}
	c.Runs = make([]Run, 0, len(specs)*opts.Trials)
	for si := range specs {
		for t := 0; t < opts.Trials; t++ {
			c.Runs = append(c.Runs, Run{
				Index:    len(c.Runs),
				Scenario: specs[si].Name,
				Trial:    t,
				Seed:     experiment.TrialSeed(specs[si].Seed, t),
				State:    StateQueued,
			})
		}
	}
	if err := m.store.Create(c); err != nil {
		return nil, err
	}
	select {
	case m.queue <- c.ID:
	default:
		m.store.Update(c.ID, func(st *Campaign) {
			st.State = StateFailed
			st.Error = ErrQueueFull.Error()
		})
		return nil, ErrQueueFull
	}
	m.submitted.Add(1)
	m.queued.Add(1)
	m.activeWG.Add(1)
	return c.Clone(), nil
}

// Get returns a snapshot of the campaign.
func (m *Manager) Get(id string) (*Campaign, bool) { return m.store.Get(id) }

// List returns snapshots, oldest first; tenant "" lists all.
func (m *Manager) List(tenant string) []*Campaign { return m.store.List(tenant) }

// Cancel aborts a queued or running campaign. A queued campaign is
// marked canceled immediately (the executor discards it on dequeue); a
// running one has its context canceled, which aborts in-flight runs at
// the kernel's next verdict-poll step.
func (m *Manager) Cancel(id string) (*Campaign, error) {
	m.mu.Lock()
	var err error
	marked := false
	ok := m.store.Update(id, func(c *Campaign) {
		switch {
		case c.Terminal():
			err = ErrTerminal
		case c.State == StateQueued:
			// Finalize in place: the executor will skip the ID.
			now := m.now()
			c.State = StateCanceled
			c.FinishedAt = &now
			for i := range c.Runs {
				c.Runs[i].State = StateCanceled
			}
			c.RunsDone = len(c.Runs)
			marked = true
		default:
			// Running: the executor finalizes once its runs unwind.
		}
	})
	// Read the cancel func after the state decision, under the same
	// lock: a running campaign's func is guaranteed registered (execute
	// transitions and registers atomically), and canceling an
	// already-finished context is a harmless no-op.
	cancel := m.cancels[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	if marked {
		m.queued.Add(-1)
		m.canceled.Add(1)
		m.activeWG.Done()
		m.notify(id)
	} else if cancel != nil {
		cancel()
	}
	c, _ := m.store.Get(id)
	return c, nil
}

// Watch subscribes to change notifications for one campaign: the
// channel receives (with slack — notifications coalesce) after every
// state change. The caller must invoke the returned cancel function.
func (m *Manager) Watch(id string) (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	m.mu.Lock()
	set := m.watchers[id]
	if set == nil {
		set = make(map[chan struct{}]struct{})
		m.watchers[id] = set
	}
	set[ch] = struct{}{}
	m.mu.Unlock()
	return ch, func() {
		m.mu.Lock()
		if set, ok := m.watchers[id]; ok {
			delete(set, ch)
			if len(set) == 0 {
				delete(m.watchers, id)
			}
		}
		m.mu.Unlock()
	}
}

// notify wakes every watcher of id without blocking.
func (m *Manager) notify(id string) {
	m.mu.Lock()
	for ch := range m.watchers[id] {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	m.mu.Unlock()
}

// Drain stops intake and waits until every queued and running campaign
// reaches a terminal state, or until ctx expires — in which case the
// remaining campaigns keep running and the caller decides whether to
// force-stop with Close.
func (m *Manager) Drain(ctx context.Context) error {
	m.draining.Store(true)
	done := make(chan struct{})
	go func() {
		m.activeWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("campaign: drain interrupted: %w", ctx.Err())
	}
}

// Close force-cancels everything and waits for the executors to exit.
// Campaigns still queued or running are finalized as canceled.
func (m *Manager) Close() {
	m.draining.Store(true)
	m.baseCancel()
	m.executorWG.Wait()
	// Quiescence barrier: any Submit that passed the draining check
	// before the flag flipped holds (or will acquire) the mutex; after
	// one acquisition here, no further enqueue can happen.
	m.mu.Lock()
	m.mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	// Finalize whatever the executors never dequeued.
	for {
		select {
		case id := <-m.queue:
			m.finalizeSkipped(id)
		default:
			return
		}
	}
}

// finalizeSkipped marks a never-started campaign canceled.
func (m *Manager) finalizeSkipped(id string) {
	changed := false
	m.store.Update(id, func(c *Campaign) {
		if c.Terminal() {
			return
		}
		now := m.now()
		c.State = StateCanceled
		c.FinishedAt = &now
		for i := range c.Runs {
			c.Runs[i].State = StateCanceled
		}
		c.RunsDone = len(c.Runs)
		changed = true
	})
	if changed {
		m.queued.Add(-1)
		m.canceled.Add(1)
		m.activeWG.Done()
		m.notify(id)
	}
}

// Stats snapshots the manager for the metrics exporter.
func (m *Manager) Stats() Stats {
	return Stats{
		QueueDepth:    int(m.queued.Load()),
		Running:       int(m.running.Load()),
		Submitted:     m.submitted.Load(),
		Completed:     m.completed.Load(),
		Failed:        m.failed.Load(),
		Canceled:      m.canceled.Load(),
		RateLimited:   m.rateLimited.Load(),
		QuotaRejected: m.quotaRejected.Load(),
		Runs:          m.runs.Load(),
		RunLatency:    m.latency.snapshot(),
		LastRunAllocs: m.lastRunAllocs.Load(),
		TracedRuns:    m.tracedRuns.Load(),
		TraceEvents:   m.traceEvents.Load(),
		Draining:      m.draining.Load(),
	}
}

// executor pulls campaign IDs off the queue and runs them until the
// manager closes.
func (m *Manager) executor() {
	defer m.executorWG.Done()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case id := <-m.queue:
			m.execute(id)
		}
	}
}

// execute runs one dequeued campaign to a terminal state.
func (m *Manager) execute(id string) {
	// The queued→running transition and the cancel-func registration
	// happen under one lock acquisition, so Cancel always sees a
	// consistent pair: either the campaign is still queued (Cancel
	// finalizes it in place and this dequeue is a no-op), or it is
	// running and the cancel func is registered.
	ctx, cancel := context.WithCancel(m.baseCtx)
	now := m.now()
	started := false
	m.mu.Lock()
	m.store.Update(id, func(c *Campaign) {
		if c.State != StateQueued {
			return
		}
		c.State = StateRunning
		c.StartedAt = &now
		for i := range c.Runs {
			c.Runs[i].State = StateRunning
		}
		started = true
	})
	if started {
		m.cancels[id] = cancel
	}
	m.mu.Unlock()
	if !started {
		// Canceled while queued — Cancel already did the accounting.
		cancel()
		return
	}
	defer func() {
		m.mu.Lock()
		delete(m.cancels, id)
		m.mu.Unlock()
		cancel()
		m.activeWG.Done()
	}()

	m.queued.Add(-1)
	m.running.Add(1)
	defer m.running.Add(-1)
	m.notify(id)

	snap, ok := m.store.Get(id)
	if !ok {
		return
	}

	// Fan the runs out on this campaign's pool. Results land at their
	// own index; seeds were fixed at submit time, so neither scheduling
	// nor concurrent campaigns can perturb a digest.
	workers := m.runWorkers
	if snap.Workers > 0 && snap.Workers < workers {
		workers = snap.Workers
	}
	if len(snap.Runs) < workers {
		workers = len(snap.Runs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(snap.Runs) {
					return
				}
				m.executeRun(ctx, id, snap, i)
			}
		}()
	}
	wg.Wait()

	// Reduce run states to the campaign verdict.
	final, errMsg := StateDone, ""
	fin, _ := m.store.Get(id)
	if fin != nil {
		for _, r := range fin.Runs {
			switch r.State {
			case StateFailed:
				final = StateFailed
				if errMsg == "" {
					errMsg = r.Error
				}
			case StateCanceled:
				if final != StateFailed {
					final = StateCanceled
				}
			}
		}
	}
	end := m.now()
	m.store.Update(id, func(c *Campaign) {
		c.State = final
		c.Error = errMsg
		c.FinishedAt = &end
		c.RunsDone = len(c.Runs)
	})
	switch final {
	case StateDone:
		m.completed.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCanceled:
		m.canceled.Add(1)
	}
	m.notify(id)
}

// executeRun runs one (spec, trial) cell and records its outcome.
func (m *Manager) executeRun(ctx context.Context, id string, snap *Campaign, i int) {
	run := snap.Runs[i]
	if ctx.Err() != nil {
		m.finishRun(id, i, func(r *Run) { r.State = StateCanceled })
		return
	}
	spec := snap.Specs[i/snap.Trials]
	spec.Seed = run.Seed

	// A spec that requests the run-trace plane records into memory; the
	// NDJSON lands on the Run for the ?trace=1 streaming endpoint.
	var sink trace.Sink
	var rec *trace.Recorder
	if spec.Trace != nil && spec.Trace.Enabled {
		rec = &trace.Recorder{}
		sink = rec
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startMallocs := ms.Mallocs
	start := time.Now()
	res, err := m.runScenario(ctx, spec, sink)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs - startMallocs

	m.latency.observe(elapsed)
	m.runs.Add(1)
	m.lastRunAllocs.Store(allocs)
	if rec != nil {
		m.tracedRuns.Add(1)
		m.traceEvents.Add(uint64(rec.Len())) //nolint:gosec // event count is non-negative
	}
	m.finishRun(id, i, func(r *Run) {
		r.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
		r.Allocs = allocs
		if rec != nil {
			r.trace = rec.NDJSON()
			r.TraceEvents = uint64(rec.Len()) //nolint:gosec // event count is non-negative
		}
		switch {
		case err != nil && ctx.Err() != nil && !errors.Is(err, errPanic):
			r.State = StateCanceled
		case err != nil:
			r.State = StateFailed
			r.Error = err.Error()
		default:
			d := res.Digest()
			r.State = StateDone
			r.Digest = d.Hash
			r.Canonical = d.Canonical
		}
	})
}

// errPanic marks the error of a run whose scenario panicked.
var errPanic = errors.New("panic")

// runScenario runs one scenario and reports a panic in it as the run's
// error, so one faulty run fails alone instead of killing the service.
func (m *Manager) runScenario(ctx context.Context, spec scenario.Spec, sink trace.Sink) (res *scenario.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("%w: %v", errPanic, v)
		}
	}()
	return m.run(ctx, spec, sink)
}

// finishRun applies a terminal mutation to one run and notifies.
func (m *Manager) finishRun(id string, i int, mutate func(*Run)) {
	m.store.Update(id, func(c *Campaign) {
		mutate(&c.Runs[i])
		c.RunsDone++
	})
	m.notify(id)
}
