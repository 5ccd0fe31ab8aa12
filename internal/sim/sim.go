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
// and AfterBurst pass their own, and a Ticker re-arms itself through
// the same path.
// A burst is n calls at one instant under n consecutive sequence
// numbers, held in one heap entry that hands them out in place.
// Scheduling allocates nothing once the heap has grown to its working
// size. Cancel marks an event in a set consulted when it is popped.
package sim

import (
	"math"
	"math/rand"
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

// event is one pending callback: fn(arg) runs at virtual time at. A
// burst entry also runs it under each of the next more seqs: its key is
// always that of its next sub-event.
type event struct {
	key
	fn   func(any)
	arg  any
	more int
}

// Event is a handle to a callback scheduled by At, After or AfterCall.
// The zero value is a handle to nothing; its Cancel is a no-op.
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

// Pending returns the number of events waiting to run, counting each of
// a burst's calls and canceled events that have not been reaped yet.
func (s *Scheduler) Pending() int {
	n := len(s.events)
	for _, e := range s.events {
		n += e.more
	}
	return n
}

// Processed returns how many events have run so far.
func (s *Scheduler) Processed() uint64 { return s.ran }

// At schedules fn to run at absolute virtual time t. Times in the past run
// at the current instant (never before already-queued events for that
// instant).
func (s *Scheduler) At(t time.Duration, fn func()) Event { return s.push(t, callFunc, fn, 1) }

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Event { return s.push(s.now+d, callFunc, fn, 1) }

// AfterBurst schedules n calls of fn(arg), back to back, d after the
// current virtual time: exactly the calls that scheduling fn(arg) n
// times in a row would run, in the same order under the same sequence
// numbers, each counted in Processed and traced as its own dispatch.
// The n calls share one queue entry, so a broadcast fanning out to every
// receiver costs one push and one pop; fn tells the calls apart by state
// it keeps in arg. With a static fn and a pointer arg nothing allocates.
// The calls cannot be canceled; n <= 0 schedules nothing.
func (s *Scheduler) AfterBurst(d time.Duration, n int, fn func(any), arg any) {
	if n > 0 {
		s.push(s.now+d, fn, arg, n)
	}
}

// AfterCall schedules fn(arg) to run d after the current virtual time
// and returns its cancelable handle. With a static fn and a pointer arg
// nothing allocates.
//
//repro:allocfree
func (s *Scheduler) AfterCall(d time.Duration, fn func(any), arg any) Event {
	return s.push(s.now+d, fn, arg, 1)
}

// callFunc is the callback of events scheduled by At and After.
func callFunc(fn any) { fn.(func())() }

// push enqueues n calls of fn(arg) at time t, clamped to now, under the
// next n sequence numbers, and returns the handle of the first.
//
//repro:allocfree
func (s *Scheduler) push(t time.Duration, fn func(any), arg any, n int) Event {
	if t < s.now {
		t = s.now
	}
	e := event{key: key{t, s.seq}, fn: fn, arg: arg, more: n - 1}
	s.seq += uint64(n) //nolint:gosec // n >= 1
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
// limit, reaping canceled events on the way. A burst at the head hands
// out its next call in place: the entry's key moves to its next reserved
// seq, which still sorts first, since any other event at that instant
// holds a seq outside the reserved range and every event pushed since
// holds a later one (DESIGN.md §10). The entry leaves with its last call.
func (s *Scheduler) next(limit time.Duration) (event, bool) {
	for len(s.events) > 0 && s.events[0].at <= limit {
		if h := &s.events[0]; h.more > 0 {
			e := *h
			h.seq++
			h.more--
			return e, true
		}
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
	t.next = s.push(s.now+start, fireTicker, t, 1)
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
	t.next = t.s.push(t.s.now+d, fireTicker, t, 1)
}

// Stop cancels future firings. It is safe to call more than once and from
// within the ticker's own callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.next.Cancel()
}
