// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is single-threaded: events run one at a time in virtual-time
// order, with FIFO ordering among events scheduled for the same instant.
// Determinism is a hard requirement for the reproduction — every experiment
// in EXPERIMENTS.md records its seed, and re-running with the same seed must
// produce byte-identical series.
//
// Pending events are stored by value in a binary min-heap keyed on
// (time, sequence number), and every event has one callback form,
// fn(arg): At and After store their func() as the argument, AfterCall
// passes its own, and a Ticker re-arms itself through the same path.
// Scheduling allocates nothing once the heap has grown to its working
// size. Cancel marks an event in a set consulted when it is popped.
package sim

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/trace"
)

// key orders events by virtual time, then by scheduling order, so
// same-instant events run FIFO. No two events share a seq.
type key struct {
	at  time.Duration
	seq uint64
}

func (k key) before(o key) bool { return k.at < o.at || (k.at == o.at && k.seq < o.seq) }

// event is one pending callback: fn(arg) runs at virtual time at.
type event struct {
	key
	fn  func(any)
	arg any
}

// Event is a handle to a callback scheduled by At or After. The zero
// value is a handle to nothing; its Cancel is a no-op.
type Event struct {
	s *Scheduler
	key
}

// Cancel prevents the event from running. Canceling an already-run or
// already-canceled event is a no-op.
func (e Event) Cancel() {
	s := e.s
	if s == nil || s.gone(e) {
		return
	}
	if s.canceled == nil {
		s.canceled = make(map[uint64]struct{})
	}
	s.canceled[e.seq] = struct{}{}
}

// Scheduler owns the virtual clock and the pending event queue.
type Scheduler struct {
	now      time.Duration
	seq      uint64
	events   []event // binary min-heap on (at, seq)
	canceled map[uint64]struct{}
	// floor is the sequence number drawn next when the queue last ran
	// empty: every event with a lower seq has run or been reaped.
	floor  uint64
	rng    *rand.Rand
	ran    uint64
	tracer *trace.Tracer
}

// SetTracer installs the run-trace tracer (nil = off). Dispatch events
// are pure observation: they are emitted after the clock has advanced
// and the run counter has been bumped, draw no randomness, and schedule
// nothing — a traced run executes exactly the events an untraced run
// does.
func (s *Scheduler) SetTracer(t *trace.Tracer) { s.tracer = t }

// New returns a scheduler whose random source is seeded with seed.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))} //nolint:gosec // simulation, not crypto
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source. All simulation
// randomness must come from this source (or one derived from it) so that a
// seed fully determines a run.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Pending returns the number of events waiting to run, including canceled
// events that have not been reaped yet.
func (s *Scheduler) Pending() int { return len(s.events) }

// Reserve grows the event queue's capacity so the next n schedule calls
// do not reallocate it. Bulk schedulers (the radio medium fanning one
// broadcast out to every receiver) call it once per burst; it has no
// observable effect on event ordering or timing.
func (s *Scheduler) Reserve(n int) { s.events = slices.Grow(s.events, n) }

// Processed returns how many events have run so far.
func (s *Scheduler) Processed() uint64 { return s.ran }

// At schedules fn to run at absolute virtual time t. Times in the past run
// at the current instant (never before already-queued events for that
// instant).
func (s *Scheduler) At(t time.Duration, fn func()) Event { return s.push(t, callFunc, fn) }

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Event { return s.push(s.now+d, callFunc, fn) }

// AfterCall schedules fn(arg) to run d after the current virtual time.
// With a static fn and a pointer arg it schedules without building a
// closure, which is what bulk schedulers (the radio medium fans one
// broadcast out to every receiver) want. The call cannot be canceled.
func (s *Scheduler) AfterCall(d time.Duration, fn func(any), arg any) { s.push(s.now+d, fn, arg) }

// callFunc is the callback of events scheduled by At and After.
func callFunc(fn any) { fn.(func())() }

// push enqueues fn(arg) at time t, clamped to now, under the next
// sequence number.
func (s *Scheduler) push(t time.Duration, fn func(any), arg any) Event {
	if t < s.now {
		t = s.now
	}
	e := event{key: key{t, s.seq}, fn: fn, arg: arg}
	s.seq++
	s.events = append(s.events, e)
	h := s.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p].key) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	return Event{s, e.key}
}

// pop removes and returns the earliest pending event.
func (s *Scheduler) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = event{} // drop the callback's references
	h = h[:n]
	s.events = h
	if n == 0 {
		s.floor = s.seq
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c].key) {
			c = r
		}
		if !h[c].before(e.key) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
	return top
}

// gone reports whether the event behind handle e has run or been reaped.
// Between two moments the queue runs empty, events leave it in (at, seq)
// order and no later push sorts before them: next reaps only events due
// by the time the clock then stands at, and a push is due no earlier
// than the clock. So an event is gone exactly when its seq predates the
// last empty queue or it sorts before the current head.
func (s *Scheduler) gone(e Event) bool {
	return e.seq < s.floor || len(s.events) == 0 || e.before(s.events[0].key)
}

// next removes and returns the earliest live event due at or before
// limit, reaping canceled events on the way.
func (s *Scheduler) next(limit time.Duration) (event, bool) {
	for len(s.events) > 0 && s.events[0].at <= limit {
		e := s.pop()
		if len(s.canceled) > 0 {
			if _, dead := s.canceled[e.seq]; dead {
				delete(s.canceled, e.seq)
				continue
			}
		}
		return e, true
	}
	return event{}, false
}

// dispatch advances the clock to e and runs it.
func (s *Scheduler) dispatch(e event) {
	s.now = e.at
	s.ran++
	if s.tracer.On() {
		s.tracer.Emit(trace.Event{Plane: trace.PlaneSched, Kind: trace.KindDispatch,
			V0: float64(e.seq)})
	}
	e.fn(e.arg)
}

// Step runs the single earliest pending event. It reports false when the
// queue is empty.
func (s *Scheduler) Step() bool {
	e, ok := s.next(math.MaxInt64)
	if ok {
		s.dispatch(e)
	}
	return ok
}

// RunUntil executes events in order until the queue is empty or the next
// event lies strictly after t. The clock is advanced to t afterwards so that
// subsequent After calls are relative to t.
func (s *Scheduler) RunUntil(t time.Duration) {
	for e, ok := s.next(t); ok; e, ok = s.next(t) {
		s.dispatch(e)
	}
	if s.now < t {
		s.now = t
	}
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() { //nolint:revive // intentional empty body
	}
}

// Ticker repeatedly schedules a callback with optional uniform jitter, the
// way OLSR emission timers de-synchronize control traffic.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	jitter   float64
	fn       func()
	next     Event
	stopped  bool
}

// Every schedules fn to run first after start and then every interval,
// each firing pulled earlier by a uniform random fraction of interval in
// [0, jitter). Stop the returned ticker to cease firing.
func (s *Scheduler) Every(start, interval time.Duration, jitter float64, fn func()) *Ticker {
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	t := &Ticker{s: s, interval: interval, jitter: jitter, fn: fn}
	t.next = s.push(s.now+start, fireTicker, t)
	return t
}

// fireTicker is the callback of ticker events.
func fireTicker(t any) { t.(*Ticker).fire() }

func (t *Ticker) fire() {
	t.fn()
	if t.stopped { // fn may stop its own ticker
		return
	}
	d := t.interval
	if t.jitter > 0 {
		d -= time.Duration(t.jitter * t.s.rng.Float64() * float64(t.interval))
	}
	if d <= 0 {
		d = 1
	}
	t.next = t.s.push(t.s.now+d, fireTicker, t)
}

// Stop cancels future firings. It is safe to call more than once and from
// within the ticker's own callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.next.Cancel()
}
