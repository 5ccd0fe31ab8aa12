package campaign

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// tinySpec is the 4-node/5s packet scenario the lifecycle tests run:
// ~60 events, well under a millisecond, so tests exercise the service
// plumbing, not the simulator.
func tinySpec(seed int64) scenario.Spec {
	return scenario.Spec{Name: "tiny", Seed: seed, Nodes: 4, Duration: scenario.Dur(5 * time.Second)}
}

// slowSpec is big enough (16 mobile nodes, 4 simulated minutes) that a
// campaign over it is reliably observable in the running state.
func slowSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Name: "slow", Seed: seed, Nodes: 16, Duration: scenario.Dur(4 * time.Minute),
		Mobility: scenario.MobilitySpec{Model: "waypoint", MaxSpeed: 2},
	}
}

// waitTerminal polls until the campaign finishes (the tests also cover
// Watch; polling keeps the helpers independent of it).
func waitTerminal(t *testing.T, m *Manager, id string) *Campaign {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		c, ok := m.Get(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if c.Terminal() {
			return c
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("campaign %s never reached a terminal state", id)
	return nil
}

func TestSubmitRunsToDone(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	c, err := m.Submit("t", []scenario.Spec{tinySpec(7)}, RunOpts{Trials: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if c.State != StateQueued || len(c.Runs) != 3 {
		t.Fatalf("submitted campaign: state %q, %d runs", c.State, len(c.Runs))
	}
	// Trial seeds follow experiment.TrialSeed with trial 0 = spec seed.
	if c.Runs[0].Seed != 7 {
		t.Errorf("trial 0 seed = %d, want the spec seed 7", c.Runs[0].Seed)
	}
	for i, r := range c.Runs {
		if want := experiment.TrialSeed(7, i); r.Seed != want {
			t.Errorf("trial %d seed = %d, want %d", i, r.Seed, want)
		}
	}

	fin := waitTerminal(t, m, c.ID)
	if fin.State != StateDone || fin.RunsDone != 3 {
		t.Fatalf("final: state %q runsDone %d (error %q)", fin.State, fin.RunsDone, fin.Error)
	}
	for i, r := range fin.Runs {
		if r.State != StateDone || r.Digest == "" || r.Canonical == "" {
			t.Errorf("run %d: state %q digest %q", i, r.State, r.Digest)
		}
	}
	if st := m.Stats(); st.Completed != 1 || st.Runs != 3 {
		t.Errorf("stats: completed %d runs %d", st.Completed, st.Runs)
	}
}

// TestFinishedRunReportsAllocs checks that a finished run reports its
// malloc delta and that the LastRunAllocs gauge carries it.
func TestFinishedRunReportsAllocs(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	c, err := m.Submit("t", []scenario.Spec{tinySpec(1)}, RunOpts{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitTerminal(t, m, c.ID)
	if r := fin.Runs[0]; r.State != StateDone || r.Allocs == 0 {
		t.Fatalf("run: state %q allocs %d", r.State, r.Allocs)
	}
	if st := m.Stats(); st.LastRunAllocs != fin.Runs[0].Allocs {
		t.Errorf("LastRunAllocs = %d, the run reported %d", st.LastRunAllocs, fin.Runs[0].Allocs)
	}
}

// TestRunPanicFailsAlone checks that a panicking scenario fails its own
// run and campaign, and that the manager then runs a normal campaign.
func TestRunPanicFailsAlone(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	m.run = func(ctx context.Context, spec scenario.Spec, sink trace.Sink) (*scenario.Result, error) {
		if spec.Name == "panics" {
			panic("boom")
		}
		return scenario.RunContext(ctx, spec, sink)
	}

	bad := tinySpec(1)
	bad.Name = "panics"
	c, err := m.Submit("t", []scenario.Spec{bad}, RunOpts{Trials: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitTerminal(t, m, c.ID)
	if fin.State != StateFailed || fin.Error != "panic: boom" {
		t.Fatalf("panicking campaign: state %q error %q, want %q and %q", fin.State, fin.Error, StateFailed, "panic: boom")
	}
	for i, r := range fin.Runs {
		if r.State != StateFailed || r.Error != "panic: boom" {
			t.Errorf("run %d: state %q error %q", i, r.State, r.Error)
		}
	}

	c, err = m.Submit("t", []scenario.Spec{tinySpec(2)}, RunOpts{})
	if err != nil {
		t.Fatalf("Submit after the panic: %v", err)
	}
	if fin := waitTerminal(t, m, c.ID); fin.State != StateDone {
		t.Fatalf("campaign after the panic: state %q error %q", fin.State, fin.Error)
	}
}

// TestDigestsMatchDirectEngineRun is the determinism keystone: a
// campaign through the service plane produces byte-identical canonical
// digests to ScenarioTrials on a bare engine — same spec, same seeds.
func TestDigestsMatchDirectEngineRun(t *testing.T) {
	const trials = 4
	spec := tinySpec(42)

	eng := experiment.NewRunner(spec.Seed, 2)
	direct, err := eng.ScenarioTrials(context.Background(), spec, trials, "")
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}

	m := NewManager(Config{})
	defer m.Close()
	c, err := m.Submit("t", []scenario.Spec{spec}, RunOpts{Trials: trials})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitTerminal(t, m, c.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign finished %q: %s", fin.State, fin.Error)
	}
	for i := range fin.Runs {
		d := direct[i].Digest()
		if fin.Runs[i].Digest != d.Hash {
			t.Errorf("run %d digest = %s, engine %s", i, fin.Runs[i].Digest, d.Hash)
		}
		if fin.Runs[i].Canonical != d.Canonical {
			t.Errorf("run %d canonical text diverges from the engine's", i)
		}
	}
}

func TestSubmitRejectsRoundsAndInvalidSpecs(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	rounds := scenario.Spec{Name: "figs", Kind: scenario.KindRounds, Seed: 1, Nodes: 16,
		Duration: scenario.Dur(time.Second), Rounds: &scenario.RoundsSpec{Rounds: 5}}
	if _, err := m.Submit("t", []scenario.Spec{rounds}, RunOpts{}); err == nil {
		t.Error("rounds-kind spec accepted; want rejection")
	}
	bad := tinySpec(1)
	bad.Mobility.Model = "teleport"
	if _, err := m.Submit("t", []scenario.Spec{bad}, RunOpts{}); err == nil {
		t.Error("invalid spec accepted; want Validate error")
	}
}

func TestQuotaBoundsActiveCampaigns(t *testing.T) {
	m := NewManager(Config{Quota: Quota{MaxActive: 1}, CampaignWorkers: 1})
	defer m.Close()

	c, err := m.Submit("tenant-a", []scenario.Spec{slowSpec(1)}, RunOpts{})
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if _, err := m.Submit("tenant-a", []scenario.Spec{tinySpec(1)}, RunOpts{}); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("second submit err = %v, want ErrQuotaExceeded", err)
	}
	// The quota is per tenant: another tenant is unaffected.
	if _, err := m.Submit("tenant-b", []scenario.Spec{tinySpec(1)}, RunOpts{}); err != nil {
		t.Errorf("other tenant rejected: %v", err)
	}
	waitTerminal(t, m, c.ID)
	if _, err := m.Submit("tenant-a", []scenario.Spec{tinySpec(1)}, RunOpts{}); err != nil {
		t.Errorf("submit after completion rejected: %v", err)
	}
	if st := m.Stats(); st.QuotaRejected != 1 {
		t.Errorf("quotaRejected = %d, want 1", st.QuotaRejected)
	}
}

func TestRateLimiterThrottlesSubmissions(t *testing.T) {
	// The executors read the clock too, so it is an atomic.
	var clock atomic.Int64
	clock.Store(time.Unix(1, 0).UnixNano())
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	m := NewManager(Config{Quota: Quota{RatePerSec: 1, Burst: 2}, Now: now})
	defer m.Close()

	for i := 0; i < 2; i++ {
		if _, err := m.Submit("t", []scenario.Spec{tinySpec(int64(i + 1))}, RunOpts{}); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	if _, err := m.Submit("t", []scenario.Spec{tinySpec(9)}, RunOpts{}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("burst-exhausted submit err = %v, want ErrRateLimited", err)
	}
	// One second of refill buys exactly one more token.
	clock.Add(int64(time.Second))
	if _, err := m.Submit("t", []scenario.Spec{tinySpec(10)}, RunOpts{}); err != nil {
		t.Errorf("submit after refill: %v", err)
	}
	if _, err := m.Submit("t", []scenario.Spec{tinySpec(11)}, RunOpts{}); !errors.Is(err, ErrRateLimited) {
		t.Errorf("second submit after refill err = %v, want ErrRateLimited", err)
	}
}

func TestCancelQueuedCampaign(t *testing.T) {
	// One executor, occupied by a slow campaign: the second stays queued.
	m := NewManager(Config{CampaignWorkers: 1})
	defer m.Close()

	blocker, err := m.Submit("t", []scenario.Spec{slowSpec(1)}, RunOpts{})
	if err != nil {
		t.Fatalf("blocker Submit: %v", err)
	}
	queued, err := m.Submit("t", []scenario.Spec{tinySpec(2)}, RunOpts{})
	if err != nil {
		t.Fatalf("queued Submit: %v", err)
	}
	c, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if c.State != StateCanceled || c.Runs[0].State != StateCanceled {
		t.Errorf("canceled queued campaign: state %q run %q", c.State, c.Runs[0].State)
	}
	if _, err := m.Cancel(queued.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("re-cancel err = %v, want ErrTerminal", err)
	}
	if _, err := m.Cancel("c-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown cancel err = %v, want ErrNotFound", err)
	}
	waitTerminal(t, m, blocker.ID)
}

func TestCancelRunningCampaign(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	c, err := m.Submit("t", []scenario.Spec{slowSpec(3)}, RunOpts{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait for the executor to pick it up, then cancel mid-simulation.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := m.Get(c.ID)
		if snap.State == StateRunning {
			break
		}
		if snap.Terminal() || !time.Now().Before(deadline) {
			t.Fatalf("campaign never observed running (state %q)", snap.State)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(c.ID); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	fin := waitTerminal(t, m, c.ID)
	if fin.State != StateCanceled {
		t.Fatalf("final state %q, want canceled", fin.State)
	}
	if fin.Runs[0].State != StateCanceled {
		t.Errorf("run state %q, want canceled", fin.Runs[0].State)
	}
}

func TestWatchSeesLifecycle(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	c, err := m.Submit("t", []scenario.Spec{tinySpec(5)}, RunOpts{Trials: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	updates, stop := m.Watch(c.ID)
	defer stop()
	deadline := time.After(30 * time.Second)
	for {
		snap, _ := m.Get(c.ID)
		if snap.Terminal() {
			if snap.State != StateDone {
				t.Fatalf("watched campaign finished %q", snap.State)
			}
			return
		}
		select {
		case <-updates:
		case <-deadline:
			t.Fatal("watch never delivered the terminal update")
		}
	}
}

func TestDrainWaitsAndRejectsNewWork(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	c, err := m.Submit("t", []scenario.Spec{tinySpec(6)}, RunOpts{Trials: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	snap, _ := m.Get(c.ID)
	if !snap.Terminal() {
		t.Errorf("drained manager left campaign in %q", snap.State)
	}
	if _, err := m.Submit("t", []scenario.Spec{tinySpec(1)}, RunOpts{}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining err = %v, want ErrDraining", err)
	}
	if !m.Stats().Draining {
		t.Error("Stats().Draining = false after Drain")
	}
}

func TestSeedOverrideReseedsSweep(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	seed := int64(99)
	c, err := m.Submit("t", []scenario.Spec{tinySpec(1), tinySpec(2)}, RunOpts{Seed: &seed, Trials: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for _, r := range c.Runs {
		if want := experiment.TrialSeed(seed, r.Trial); r.Seed != want {
			t.Errorf("run %d seed %d, want %d (override %d, trial %d)", r.Index, r.Seed, want, seed, r.Trial)
		}
	}
	waitTerminal(t, m, c.ID)
}

// blockingRun returns a run seam that signals started (without
// blocking) as each run begins and then holds the run until release is
// closed or the run's context ends.
func blockingRun(started chan<- struct{}, release <-chan struct{}) func(context.Context, scenario.Spec, trace.Sink) (*scenario.Result, error) {
	return func(ctx context.Context, spec scenario.Spec, sink trace.Sink) (*scenario.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return scenario.RunContext(ctx, spec, sink)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestQueueFullLeavesNoCampaign checks that a submission the queue has
// no room for is rejected like a quota rejection: nothing is stored and
// nothing is counted.
func TestQueueFullLeavesNoCampaign(t *testing.T) {
	m := NewManager(Config{CampaignWorkers: 1, MaxQueue: 1})
	defer m.Close()
	started, release := make(chan struct{}, 1), make(chan struct{})
	m.run = blockingRun(started, release)

	first, err := m.Submit("t", []scenario.Spec{tinySpec(1)}, RunOpts{})
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	<-started // the executor holds the first campaign; the queue is empty
	second, err := m.Submit("t", []scenario.Spec{tinySpec(2)}, RunOpts{})
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if _, err := m.Submit("t", []scenario.Spec{tinySpec(3)}, RunOpts{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Submit err = %v, want ErrQueueFull", err)
	}
	if got := m.List(""); len(got) != 2 || got[0].ID != first.ID || got[1].ID != second.ID {
		ids := make([]string, len(got))
		for i, c := range got {
			ids[i] = c.ID + ":" + string(c.State)
		}
		t.Errorf("List after a queue-full rejection = %v, want [%s %s]", ids, first.ID, second.ID)
	}
	if st := m.Stats(); st.Submitted != 2 || st.QueueDepth != 1 || st.Running != 1 {
		t.Errorf("stats: submitted %d queueDepth %d running %d, want 2, 1, 1", st.Submitted, st.QueueDepth, st.Running)
	}

	close(release)
	for _, id := range []string{first.ID, second.ID} {
		if fin := waitTerminal(t, m, id); fin.State != StateDone {
			t.Errorf("campaign %s: state %q error %q", id, fin.State, fin.Error)
		}
	}
}

// TestCloseCancelsQueuedCampaigns checks that Close finalizes a running
// campaign and every queued one as canceled, run by run, and leaves the
// counters balanced.
func TestCloseCancelsQueuedCampaigns(t *testing.T) {
	m := NewManager(Config{CampaignWorkers: 1})
	started := make(chan struct{}, 1)
	m.run = blockingRun(started, nil)

	var ids []string
	for i := 0; i < 3; i++ {
		c, err := m.Submit("t", []scenario.Spec{tinySpec(int64(i + 1))}, RunOpts{Trials: 2})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, c.ID)
	}
	<-started // the first campaign runs; the other two stay queued
	m.Close()

	for _, id := range ids {
		c, ok := m.Get(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if c.State != StateCanceled || c.RunsDone != len(c.Runs) || c.FinishedAt == nil {
			t.Errorf("campaign %s: state %q runsDone %d/%d", id, c.State, c.RunsDone, len(c.Runs))
		}
		for _, r := range c.Runs {
			if r.State != StateCanceled {
				t.Errorf("campaign %s run %d: state %q, want canceled", id, r.Index, r.State)
			}
		}
	}
	st := m.Stats()
	if st.QueueDepth != 0 || st.Running != 0 {
		t.Errorf("after Close: queueDepth %d running %d, want 0 and 0", st.QueueDepth, st.Running)
	}
	if st.Submitted != 3 || st.Submitted != st.Completed+st.Failed+st.Canceled {
		t.Errorf("after Close: submitted %d, completed %d + failed %d + canceled %d", st.Submitted, st.Completed, st.Failed, st.Canceled)
	}
}
