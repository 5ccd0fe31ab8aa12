package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
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
// empty. All methods are safe for concurrent use. Campaigns live in
// memory for the life of the process; a restart starts empty.
type Manager struct {
	quota Quota
	now   func() time.Time
	// run executes one scenario: scenario.RunContext, which tests replace
	// with a fake.
	run func(context.Context, scenario.Spec, trace.Sink) (*scenario.Result, error)

	runWorkers int
	queue      chan string

	baseCtx    context.Context
	baseCancel context.CancelFunc
	executorWG sync.WaitGroup // executor goroutines
	activeWG   sync.WaitGroup // campaigns from enqueue to terminal

	// mu guards all of the manager's mutable state below. Readers get
	// clones, so no caller ever observes a campaign mid-mutation.
	mu        sync.Mutex
	campaigns map[string]*Campaign
	// cancels holds the context cancel func of every running campaign;
	// a campaign is running exactly while its func is registered.
	cancels  map[string]context.CancelFunc
	watchers map[string]map[chan struct{}]struct{}
	buckets  map[string]*bucket // per-tenant rate limits (limiter.go)
	seq      int
	// stats holds the counters and gauges behind Stats, Draining among
	// them: once set, Submit rejects everything. RunLatency is filled in
	// from latency by Stats.
	stats   Stats
	latency histogram
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
		quota:      cfg.Quota,
		now:        cfg.Now,
		run:        scenario.RunContext,
		runWorkers: cfg.RunWorkers,
		queue:      make(chan string, cfg.MaxQueue),
		baseCtx:    ctx,
		baseCancel: cancel,
		campaigns:  make(map[string]*Campaign),
		cancels:    make(map[string]context.CancelFunc),
		watchers:   make(map[string]map[chan struct{}]struct{}),
		buckets:    make(map[string]*bucket),
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
// A rejected submission leaves no campaign behind.
func (m *Manager) Submit(tenant string, specs []scenario.Spec, opts RunOpts) (*Campaign, error) {
	// One hold of mu covers every check and the enqueue, so the quota
	// check and the insert are atomic with respect to other submissions,
	// and no submission can enqueue once Drain or Close has set the
	// draining flag.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stats.Draining {
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
	now := m.now()
	if err := m.allow(tenant, now); err != nil {
		m.stats.RateLimited++
		return nil, err
	}
	if m.quota.MaxActive > 0 {
		active := 0
		for _, c := range m.campaigns {
			if c.Tenant == tenant && !c.Terminal() {
				active++
			}
		}
		if active >= m.quota.MaxActive {
			m.stats.QuotaRejected++
			return nil, ErrQuotaExceeded
		}
	}
	// An executor that dequeues the ID before the campaign is stored
	// blocks on mu until Submit returns.
	id := fmt.Sprintf("c-%06d", m.seq+1)
	select {
	case m.queue <- id:
	default:
		return nil, ErrQueueFull
	}
	m.seq++
	c := &Campaign{
		ID:          id,
		Tenant:      tenant,
		State:       StateQueued,
		Specs:       specs,
		Trials:      opts.Trials,
		Workers:     opts.Workers,
		SubmittedAt: now,
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
	m.campaigns[id] = c
	m.stats.Submitted++
	m.stats.QueueDepth++
	m.activeWG.Add(1)
	return c.Clone(), nil
}

// Get returns a snapshot of the campaign.
func (m *Manager) Get(id string) (*Campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.campaigns[id]
	if !ok {
		return nil, false
	}
	return c.Clone(), true
}

// List returns snapshots, oldest submission first; tenant "" lists
// every tenant.
func (m *Manager) List(tenant string) []*Campaign {
	m.mu.Lock()
	out := make([]*Campaign, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		if tenant == "" || c.Tenant == tenant {
			out = append(out, c.Clone())
		}
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b *Campaign) int {
		if c := a.SubmittedAt.Compare(b.SubmittedAt); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out
}

// Cancel aborts a queued or running campaign. A queued campaign is
// marked canceled immediately (the executor discards it on dequeue); a
// running one has its context canceled, which aborts in-flight runs at
// the kernel's next verdict-poll step.
func (m *Manager) Cancel(id string) (*Campaign, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.campaigns[id]
	switch {
	case !ok:
		return nil, ErrNotFound
	case c.Terminal():
		return nil, ErrTerminal
	case c.State == StateQueued:
		m.cancelQueued(c)
	default:
		// Running: the executor finalizes once its runs unwind.
		m.cancels[id]()
	}
	return c.Clone(), nil
}

// cancelQueued finalizes a campaign that never started as canceled,
// with every run canceled. A campaign no longer queued is left alone.
// m.mu must be held.
func (m *Manager) cancelQueued(c *Campaign) {
	if c.State != StateQueued {
		return
	}
	now := m.now()
	c.State = StateCanceled
	c.FinishedAt = &now
	for i := range c.Runs {
		c.Runs[i].State = StateCanceled
	}
	c.RunsDone = len(c.Runs)
	m.stats.QueueDepth--
	m.stats.Canceled++
	m.activeWG.Done()
	m.notify(c.ID)
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

// notify wakes every watcher of id without blocking. m.mu must be held.
func (m *Manager) notify(id string) {
	for ch := range m.watchers[id] {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Drain stops intake and waits until every queued and running campaign
// reaches a terminal state, or until ctx expires — in which case the
// remaining campaigns keep running and the caller decides whether to
// force-stop with Close.
func (m *Manager) Drain(ctx context.Context) error {
	m.stopIntake()
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
	m.stopIntake()
	m.baseCancel()
	m.executorWG.Wait()
	// The draining flag was set under mu, so no Submit enqueues any
	// more, and the executors are gone: what is left in the queue never
	// started.
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) > 0 {
		m.cancelQueued(m.campaigns[<-m.queue])
	}
}

// stopIntake sets the draining flag: every later Submit is rejected.
func (m *Manager) stopIntake() {
	m.mu.Lock()
	m.stats.Draining = true
	m.mu.Unlock()
}

// Stats snapshots the manager for the metrics exporter.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.RunLatency = m.latency.snapshot()
	return st
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
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	// The queued→running transition and the cancel-func registration
	// happen in one hold of mu, so Cancel sees either a queued campaign
	// (and finalizes it in place, making this dequeue a no-op) or a
	// running one whose cancel func is registered.
	m.mu.Lock()
	c := m.campaigns[id]
	if c.State != StateQueued {
		// Canceled while queued — cancelQueued did the accounting.
		m.mu.Unlock()
		return
	}
	now := m.now()
	c.State = StateRunning
	c.StartedAt = &now
	for i := range c.Runs {
		c.Runs[i].State = StateRunning
	}
	m.cancels[id] = cancel
	m.stats.QueueDepth--
	m.stats.Running++
	m.notify(id)
	snap := c.Clone()
	m.mu.Unlock()

	// Fan the runs out on the engine's pool, bounded by the campaign's
	// own worker limit. Results land at their own index; seeds were
	// fixed at submit time, so neither scheduling nor concurrent
	// campaigns can perturb a digest. The pool gets a context that is
	// never done, so it claims every run and returns no error: executeRun
	// checks the campaign's ctx itself and records a canceled run as
	// such, which the verdict below needs.
	workers := m.runWorkers
	if snap.Workers > 0 && snap.Workers < workers {
		workers = snap.Workers
	}
	_ = experiment.NewRunner(0, workers).ForEachContext(context.Background(), len(snap.Runs), func(i int) {
		m.executeRun(ctx, c, snap, i)
	})

	// Reduce run states to the campaign verdict.
	m.mu.Lock()
	defer m.mu.Unlock()
	final, errMsg := StateDone, ""
	for _, r := range c.Runs {
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
	end := m.now()
	c.State = final
	c.Error = errMsg
	c.FinishedAt = &end
	c.RunsDone = len(c.Runs)
	delete(m.cancels, id)
	m.stats.Running--
	switch final {
	case StateDone:
		m.stats.Completed++
	case StateFailed:
		m.stats.Failed++
	case StateCanceled:
		m.stats.Canceled++
	}
	m.activeWG.Done()
	m.notify(id)
}

// executeRun runs one (spec, trial) cell of campaign c and records its
// outcome; snap is c's snapshot at start, which the run reads its spec
// and seed from.
func (m *Manager) executeRun(ctx context.Context, c, snap *Campaign, i int) {
	run := snap.Runs[i]
	if ctx.Err() != nil {
		run.State = StateCanceled
		m.mu.Lock()
		m.finishRun(c, run)
		m.mu.Unlock()
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

	run.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	run.Allocs = ms.Mallocs - startMallocs
	if rec != nil {
		run.trace = rec.NDJSON()
		run.TraceEvents = uint64(rec.Len()) //nolint:gosec // event count is non-negative
	}
	switch {
	case err != nil && ctx.Err() != nil && !errors.Is(err, errPanic):
		run.State = StateCanceled
	case err != nil:
		run.State = StateFailed
		run.Error = err.Error()
	default:
		d := res.Digest()
		run.State = StateDone
		run.Digest = d.Hash
		run.Canonical = d.Canonical
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.latency.observe(elapsed)
	m.stats.Runs++
	m.stats.LastRunAllocs = run.Allocs
	if rec != nil {
		m.stats.TracedRuns++
		m.stats.TraceEvents += run.TraceEvents
	}
	m.finishRun(c, run)
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

// finishRun stores a terminal run in its campaign and notifies the
// campaign's watchers. m.mu must be held.
func (m *Manager) finishRun(c *Campaign, run Run) {
	c.Runs[run.Index] = run
	c.RunsDone++
	m.notify(c.ID)
}
