package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.At(3*time.Second, func() { got = append(got, 3) })
	s.At(1*time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantIsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.At(5*time.Second, func() { at = s.Now() })
	s.Run()
	if at != 5*time.Second {
		t.Errorf("Now() inside event = %v, want 5s", at)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now() after run = %v, want 5s", s.Now())
	}
}

func TestAfterIsRelative(t *testing.T) {
	s := New(1)
	var second time.Duration
	s.At(2*time.Second, func() {
		s.After(3*time.Second, func() { second = s.Now() })
	})
	s.Run()
	if second != 5*time.Second {
		t.Errorf("nested After fired at %v, want 5s", second)
	}
}

func TestPastSchedulingRunsNow(t *testing.T) {
	s := New(1)
	var ran bool
	s.At(4*time.Second, func() {
		s.At(time.Second, func() { ran = true }) // in the past
	})
	s.Run()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
	if s.Now() != 4*time.Second {
		t.Errorf("clock moved backwards: %v", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.At(time.Second, func() { ran = true })
	e.Cancel()
	e.Cancel() // twice is a no-op
	s.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if len(s.canceled) != 0 {
		t.Fatalf("%d cancel marks left after the event was reaped", len(s.canceled))
	}
	e.Cancel() // after the event left the queue: no-op
	if len(s.canceled) != 0 {
		t.Fatal("Cancel of a reaped event left a mark")
	}
	var zero Event
	zero.Cancel() // must not panic
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var got []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		s.At(d, func() { got = append(got, d) })
	}
	s.RunUntil(2 * time.Second)
	if len(got) != 2 {
		t.Fatalf("ran %d events, want 2", len(got))
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", s.Now())
	}
	s.RunUntil(10 * time.Second)
	if len(got) != 4 {
		t.Fatalf("ran %d events, want 4", len(got))
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s (clock must advance to target)", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	s.At(time.Second, func() {})
	if !s.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if s.Step() {
		t.Fatal("Step after draining returned true")
	}
}

func TestProcessedAndPending(t *testing.T) {
	s := New(1)
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", s.Processed())
	}
}

func TestTickerFiresRepeatedly(t *testing.T) {
	s := New(1)
	count := 0
	tk := s.Every(0, time.Second, 0, func() { count++ })
	s.RunUntil(10 * time.Second)
	if count != 11 { // t = 0..10 inclusive
		t.Errorf("ticker fired %d times, want 11", count)
	}
	tk.Stop()
	s.RunUntil(20 * time.Second)
	if count != 11 {
		t.Errorf("ticker fired after Stop: %d", count)
	}
}

func TestTickerJitterShortensInterval(t *testing.T) {
	s := New(42)
	var times []time.Duration
	s.Every(0, time.Second, 0.5, func() { times = append(times, s.Now()) })
	s.RunUntil(30 * time.Second)
	if len(times) < 30 {
		t.Fatalf("jittered ticker fired only %d times in 30s", len(times))
	}
	jittered := false
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap > time.Second || gap < time.Second/2 {
			t.Fatalf("gap %v outside [0.5s, 1s]", gap)
		}
		if gap != time.Second {
			jittered = true
		}
	}
	if !jittered {
		t.Error("jitter never shortened an interval")
	}
}

func TestTickerStopFromOwnCallback(t *testing.T) {
	s := New(1)
	count := 0
	var tk *Ticker
	tk = s.Every(0, time.Second, 0, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 3 {
		t.Errorf("fired %d times, want 3", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New(7)
		var times []time.Duration
		s.Every(0, time.Second, 0.8, func() { times = append(times, s.Now()) })
		s.RunUntil(60 * time.Second)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestManyEventsStaySorted(t *testing.T) {
	s := New(99)
	const n = 5000
	var last time.Duration = -1
	for i := 0; i < n; i++ {
		d := time.Duration(s.Rand().Int63n(int64(time.Hour)))
		s.At(d, func() {
			if s.Now() < last {
				t.Errorf("time went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
		})
	}
	s.Run()
	if s.Processed() != n {
		t.Fatalf("processed %d, want %d", s.Processed(), n)
	}
}

// TestBurstOrdering pins a burst's place among same-instant events: its
// calls run back to back in its reserved slot, after what was scheduled
// before it and before what was scheduled after it, mid-burst pushes
// included; each call is counted and traced with its own seq.
func TestBurstOrdering(t *testing.T) {
	s := New(1)
	var got []string
	var seqs dispatchLog
	s.SetTracer(trace.New(&seqs, s.Now))
	s.After(time.Millisecond, func() { got = append(got, "before") })
	calls := 0
	s.AfterBurst(time.Millisecond, 3, func(any) {
		calls++
		got = append(got, fmt.Sprint("burst", calls))
		if calls == 1 {
			s.After(0, func() { got = append(got, "pushed mid-burst") })
		}
	}, nil)
	s.After(time.Millisecond, func() { got = append(got, "after") })
	s.After(0, func() { got = append(got, "earlier") })
	s.AfterBurst(time.Millisecond, 0, func(any) { t.Fatal("an empty burst ran") }, nil)
	if s.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6 (each burst call counts)", s.Pending())
	}
	s.Run()
	want := []string{"earlier", "before", "burst1", "burst2", "burst3", "after", "pushed mid-burst"}
	if !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if s.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed())
	}
	var order []uint64
	for _, f := range seqs {
		order = append(order, f.seq)
	}
	if wantSeqs := []uint64{5, 0, 1, 2, 3, 4, 6}; !slices.Equal(order, wantSeqs) {
		t.Fatalf("dispatched seqs %v, want %v", order, wantSeqs)
	}
}
