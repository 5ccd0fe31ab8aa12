package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/trace"
)

// The kernel is checked against a naive reference: a slice of pending
// events, the minimum (at, seq) found by linear scan, canceled events
// flagged in place and dropped when they come up, and ticker jitter
// drawn from a source seeded like the scheduler's.

// fired is one dispatch: the event's sequence number and virtual time.
type fired struct {
	seq uint64
	at  time.Duration
}

type refEvent struct {
	at       time.Duration
	seq      uint64
	canceled bool
	fn       func()
}

type refSched struct {
	now     time.Duration
	seq     uint64
	ran     uint64
	pending []*refEvent
	rng     *rand.Rand
	log     []fired
}

func (r *refSched) at(t time.Duration, fn func()) *refEvent {
	if t < r.now {
		t = r.now
	}
	e := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	r.pending = append(r.pending, e)
	return e
}

// next removes the earliest live event due by limit, dropping canceled
// ones it passes.
func (r *refSched) next(limit time.Duration) *refEvent {
	for len(r.pending) > 0 {
		lo := 0
		for i, e := range r.pending {
			if e.at < r.pending[lo].at || (e.at == r.pending[lo].at && e.seq < r.pending[lo].seq) {
				lo = i
			}
		}
		e := r.pending[lo]
		if e.at > limit {
			return nil
		}
		r.pending = slices.Delete(r.pending, lo, lo+1)
		if !e.canceled {
			return e
		}
	}
	return nil
}

func (r *refSched) dispatch(e *refEvent) {
	r.now = e.at
	r.ran++
	r.log = append(r.log, fired{e.seq, e.at})
	e.fn()
}

func (r *refSched) step() bool {
	e := r.next(time.Duration(1<<63 - 1))
	if e != nil {
		r.dispatch(e)
	}
	return e != nil
}

func (r *refSched) runUntil(t time.Duration) {
	for e := r.next(t); e != nil; e = r.next(t) {
		r.dispatch(e)
	}
	if r.now < t {
		r.now = t
	}
}

// canceledPending counts canceled events still queued: the only cancel
// state the kernel may hold.
func (r *refSched) canceledPending() int {
	n := 0
	for _, e := range r.pending {
		if e.canceled {
			n++
		}
	}
	return n
}

type refTicker struct {
	r        *refSched
	interval time.Duration
	jitter   float64
	fn       func()
	next     *refEvent
	stopped  bool
}

func (r *refSched) every(start, interval time.Duration, jitter float64, fn func()) *refTicker {
	t := &refTicker{r: r, interval: interval, jitter: min(max(jitter, 0), 1), fn: fn}
	t.next = r.at(r.now+start, t.fire)
	return t
}

func (t *refTicker) fire() {
	t.fn()
	if t.stopped {
		return
	}
	d := t.interval
	if t.jitter > 0 {
		d -= time.Duration(t.jitter * t.r.rng.Float64() * float64(t.interval))
	}
	if d <= 0 {
		d = 1
	}
	t.next = t.r.at(t.r.now+d, t.fire)
}

func (t *refTicker) stop() {
	t.stopped = true
	t.next.canceled = true
}

// dispatchLog records the kernel's dispatch trace events.
type dispatchLog []fired

func (l *dispatchLog) Event(e trace.Event) { *l = append(*l, fired{uint64(e.V0), e.T}) }

// kernelPair drives the kernel and the reference through the same
// operations.
type kernelPair struct {
	t      *testing.T
	s      *Scheduler
	r      *refSched
	got    dispatchLog
	evs    []Event
	refEvs []*refEvent
	tks    []*Ticker
	refTks []*refTicker
}

func newKernelPair(t *testing.T, seed int64) *kernelPair {
	p := &kernelPair{t: t, s: New(seed), r: &refSched{rng: rand.New(rand.NewSource(seed))}}
	p.s.SetTracer(trace.New(&p.got, p.s.Now))
	return p
}

// action is what a scheduled callback does besides being dispatched:
// stop ticker stop (-1: none), and schedule a plain event in the past.
type action struct {
	stop int
	past bool
}

func (p *kernelPair) callbacks(a action) (func(), func()) {
	kern := func() {
		if a.stop >= 0 {
			p.tks[a.stop].Stop()
		}
		if a.past {
			p.s.At(p.s.Now()-time.Second, func() {})
		}
	}
	ref := func() {
		if a.stop >= 0 {
			p.refTks[a.stop].stop()
		}
		if a.past {
			p.r.at(p.r.now-time.Second, func() {})
		}
	}
	return kern, ref
}

// tickerCallbacks returns a ticker body that stops its own ticker on
// firing stopAfter (0: never).
func (p *kernelPair) tickerCallbacks(stopAfter int) (func(), func()) {
	i := len(p.tks)
	var nKern, nRef int
	kern := func() {
		if nKern++; nKern == stopAfter {
			p.tks[i].Stop()
		}
	}
	ref := func() {
		if nRef++; nRef == stopAfter {
			p.refTks[i].stop()
		}
	}
	return kern, ref
}

// check compares everything observable after one operation.
func (p *kernelPair) check(op string) {
	p.t.Helper()
	s, r := p.s, p.r
	if !slices.Equal(p.got, dispatchLog(r.log)) {
		p.t.Fatalf("after %s: dispatched %v, want %v", op, p.got, r.log)
	}
	if s.Processed() != r.ran || s.Now() != r.now || s.Pending() != len(r.pending) {
		p.t.Fatalf("after %s: processed/now/pending = %d/%v/%d, want %d/%v/%d",
			op, s.Processed(), s.Now(), s.Pending(), r.ran, r.now, len(r.pending))
	}
	if len(s.canceled) != r.canceledPending() {
		p.t.Fatalf("after %s: %d cancel marks, want %d (one per canceled queued event)",
			op, len(s.canceled), r.canceledPending())
	}
}

func TestKernelMatchesReference(t *testing.T) {
	bump := func(a any) { *a.(*int)++ }
	for seed := int64(1); seed <= 200; seed++ {
		gen := rand.New(rand.NewSource(seed))
		p := newKernelPair(t, seed)
		// Times on a 100ms grid so same-instant ties are common.
		dur := func(lo, hi int) time.Duration { return time.Duration(lo+gen.Intn(hi-lo+1)) * 100 * time.Millisecond }
		randAction := func() action {
			a := action{stop: -1, past: gen.Intn(8) == 0}
			if len(p.tks) > 0 && gen.Intn(6) == 0 {
				a.stop = gen.Intn(len(p.tks))
			}
			return a
		}
		var calls, refCalls int
		for op := 0; op < 300; op++ {
			var name string
			switch k := gen.Intn(12); {
			case k < 2:
				name = "At"
				kern, ref := p.callbacks(randAction())
				at := p.s.Now() + dur(-20, 50) // negative: in the past
				p.evs = append(p.evs, p.s.At(at, kern))
				p.refEvs = append(p.refEvs, p.r.at(at, ref))
			case k < 4:
				name = "After"
				kern, ref := p.callbacks(randAction())
				d := dur(-5, 50)
				p.evs = append(p.evs, p.s.After(d, kern))
				p.refEvs = append(p.refEvs, p.r.at(p.r.now+d, ref))
			case k < 5:
				name = "AfterCall"
				d := dur(-5, 50)
				p.s.AfterCall(d, bump, &calls)
				p.r.at(p.r.now+d, func() { refCalls++ })
			case k < 7 && len(p.evs) > 0:
				// Any handle: pending, already run, or already canceled.
				name = "Cancel"
				i := gen.Intn(len(p.evs))
				p.evs[i].Cancel()
				p.refEvs[i].canceled = true
			case k < 8:
				name = "Every"
				start, interval := dur(0, 30), dur(1, 20)
				jitter := []float64{0, 0.1, 0.5, 1, 1.5}[gen.Intn(5)]
				stopAfter := gen.Intn(4) * gen.Intn(6)
				kern, ref := p.tickerCallbacks(stopAfter)
				p.tks = append(p.tks, p.s.Every(start, interval, jitter, kern))
				p.refTks = append(p.refTks, p.r.every(start, interval, jitter, ref))
			case k < 9 && len(p.tks) > 0:
				name = "Stop"
				i := gen.Intn(len(p.tks))
				p.tks[i].Stop()
				p.refTks[i].stop()
			case k < 10:
				name = "Reserve"
				p.s.Reserve(gen.Intn(64))
			case k < 11:
				name = "Step"
				if got, want := p.s.Step(), p.r.step(); got != want {
					t.Fatalf("seed %d op %d: Step = %v, want %v", seed, op, got, want)
				}
			default:
				name = "RunUntil"
				at := p.s.Now() + dur(0, 40)
				p.s.RunUntil(at)
				p.r.runUntil(at)
			}
			p.check(name)
			if calls != refCalls {
				t.Fatalf("seed %d op %d: AfterCall ran %d times, want %d", seed, op, calls, refCalls)
			}
		}
		for _, tk := range p.tks {
			tk.Stop()
		}
		for _, tk := range p.refTks {
			tk.stop()
		}
		p.s.Run()
		for p.r.step() {
		}
		p.check("drain")
		if len(p.s.canceled) != 0 || p.s.Pending() != 0 {
			t.Fatalf("seed %d: drained queue holds %d events, %d cancel marks", seed, p.s.Pending(), len(p.s.canceled))
		}
		// Every handle is now stale: canceling any of them is a no-op.
		for _, e := range p.evs {
			e.Cancel()
		}
		if len(p.s.canceled) != 0 {
			t.Fatalf("seed %d: canceling run events left %d marks", seed, len(p.s.canceled))
		}
	}
}
