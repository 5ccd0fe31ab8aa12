package sim

import (
	"fmt"
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
// stop ticker stop (-1: none), cancel handle cancel (-1: none), and
// schedule a plain event in the past, which runs at the current instant
// (mid-burst: at the burst's own instant).
type action struct {
	stop, cancel int
	past         bool
}

func (p *kernelPair) callbacks(a action) (func(), func()) {
	kern := func() {
		if a.stop >= 0 {
			p.tks[a.stop].Stop()
		}
		if a.cancel >= 0 {
			p.evs[a.cancel].Cancel()
		}
		if a.past {
			p.s.At(p.s.Now()-time.Second, func() {})
		}
	}
	ref := func() {
		if a.stop >= 0 {
			p.refTks[a.stop].stop()
		}
		if a.cancel >= 0 {
			p.refEvs[a.cancel].canceled = true
		}
		if a.past {
			p.r.at(p.r.now-time.Second, func() {})
		}
	}
	return kern, ref
}

// burstArg is a kernel burst's state: call k runs kern[k].
type burstArg struct {
	calls int
	kern  []func()
}

func runBurstArg(a any) {
	b := a.(*burstArg)
	b.calls++
	b.kern[b.calls-1]()
}

// burst schedules n calls d from now on the kernel as one AfterBurst and
// on the reference as n single events, call k doing acts[k].
func (p *kernelPair) burst(d time.Duration, acts []action) {
	b := &burstArg{}
	for _, a := range acts {
		kern, ref := p.callbacks(a)
		b.kern = append(b.kern, kern)
		p.r.at(p.r.now+d, ref)
	}
	p.s.AfterBurst(d, len(acts), runBurstArg, b)
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

// chooser is the op generator's source of choices: a seeded rand for
// TestKernelMatchesReference, the fuzzer's bytes for FuzzKernel.
type chooser interface{ Intn(n int) int }

// fuzzChoices reads one choice per byte and reads 0 once spent.
type fuzzChoices []byte

func (c *fuzzChoices) Intn(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0]) % n
	*c = (*c)[1:]
	return v
}

// drive runs ops random operations on the pair, checking it after each,
// then drains both queues and checks that every handle is stale.
func (p *kernelPair) drive(gen chooser, ops int, done func() bool) {
	t := p.t
	t.Helper()
	// Times on a 100ms grid so same-instant ties are common.
	dur := func(lo, hi int) time.Duration { return time.Duration(lo+gen.Intn(hi-lo+1)) * 100 * time.Millisecond }
	randAction := func() action {
		a := action{stop: -1, cancel: -1, past: gen.Intn(4) == 0}
		if len(p.tks) > 0 && gen.Intn(6) == 0 {
			a.stop = gen.Intn(len(p.tks))
		}
		if len(p.evs) > 0 && gen.Intn(6) == 0 {
			a.cancel = gen.Intn(len(p.evs))
		}
		return a
	}
	plain := func(at time.Duration) {
		kern, ref := p.callbacks(randAction())
		p.evs = append(p.evs, p.s.At(at, kern))
		p.refEvs = append(p.refEvs, p.r.at(at, ref))
	}
	randBurst := func(d time.Duration) {
		acts := make([]action, gen.Intn(6)) // 0: schedules nothing
		for i := range acts {
			acts[i] = randAction()
		}
		p.burst(d, acts)
	}
	var lastBurst time.Duration // virtual time of the latest burst
	for op := 0; op < ops && !done(); op++ {
		var name string
		switch k := gen.Intn(14); {
		case k < 2:
			name = "At"
			plain(p.s.Now() + dur(-20, 50)) // negative: in the past
		case k < 4:
			kern, ref := p.callbacks(randAction())
			d := dur(-5, 50)
			if k == 2 {
				name = "After"
				p.evs = append(p.evs, p.s.After(d, kern))
			} else {
				name = "AfterCall"
				p.evs = append(p.evs, p.s.AfterCall(d, callFunc, kern))
			}
			p.refEvs = append(p.refEvs, p.r.at(p.r.now+d, ref))
		case k < 5:
			name = "AfterBurst"
			d := dur(-5, 50)
			lastBurst = max(p.s.Now()+d, p.s.Now())
			randBurst(d)
		case k < 6:
			// A burst with plain events at its instant on either side,
			// either of which may be canceled now or later.
			name = "AfterBurst sandwiched"
			d := dur(0, 20)
			lastBurst = p.s.Now() + d
			plain(lastBurst)
			randBurst(d)
			plain(lastBurst)
			if c := gen.Intn(4); c < 2 {
				i := len(p.evs) - 2 + c
				p.evs[i].Cancel()
				p.refEvs[i].canceled = true
			}
		case k < 8 && len(p.evs) > 0:
			// Any handle: pending, already run, or already canceled.
			name = "Cancel"
			i := gen.Intn(len(p.evs))
			p.evs[i].Cancel()
			p.refEvs[i].canceled = true
		case k < 9:
			name = "Every"
			start, interval := dur(0, 30), dur(1, 20)
			jitter := []float64{0, 0.1, 0.5, 1, 1.5}[gen.Intn(5)]
			stopAfter := gen.Intn(4) * gen.Intn(6)
			kern, ref := p.tickerCallbacks(stopAfter)
			p.tks = append(p.tks, p.s.Every(start, interval, jitter, kern))
			p.refTks = append(p.refTks, p.r.every(start, interval, jitter, ref))
		case k < 10 && len(p.tks) > 0:
			name = "Stop"
			i := gen.Intn(len(p.tks))
			p.tks[i].Stop()
			p.refTks[i].stop()
		case k < 12:
			name = "Step"
			for range 1 + gen.Intn(4) {
				if got, want := p.s.Step(), p.r.step(); got != want {
					t.Fatalf("op %d: Step = %v, want %v", op, got, want)
				}
				p.check(name)
			}
		case k < 13 && lastBurst >= p.s.Now():
			name = "RunUntil burst time"
			p.s.RunUntil(lastBurst)
			p.r.runUntil(lastBurst)
		default:
			name = "RunUntil"
			at := p.s.Now() + dur(0, 40)
			p.s.RunUntil(at)
			p.r.runUntil(at)
		}
		p.check(name)
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
		t.Fatalf("drained queue holds %d events, %d cancel marks", p.s.Pending(), len(p.s.canceled))
	}
	// Every handle is now stale: canceling any of them is a no-op.
	for _, e := range p.evs {
		e.Cancel()
	}
	if len(p.s.canceled) != 0 {
		t.Fatalf("canceling run events left %d marks", len(p.s.canceled))
	}
}

func TestKernelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			newKernelPair(t, seed).drive(rand.New(rand.NewSource(seed)), 300, func() bool { return false })
		})
	}
}

// FuzzKernel drives the kernel and the reference through the operation
// sequence the fuzzer's bytes choose; seed seeds both tickers' jitter.
func FuzzKernel(f *testing.F) {
	f.Add(int64(1), []byte{4, 2, 3, 5, 1, 10, 10, 11, 12, 0})
	f.Add(int64(7), []byte{5, 3, 9, 4, 0, 2, 5, 12, 5, 10, 13, 8, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		c := fuzzChoices(ops)
		newKernelPair(t, seed).drive(&c, len(ops), func() bool { return len(c) == 0 })
	})
}
