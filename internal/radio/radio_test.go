package radio

import (
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/sim"
)

func fixed(p geo.Point) func() geo.Point { return func() geo.Point { return p } }

type capture struct {
	frames []Frame
}

// handler keeps each frame with its own copy of the payload, which the
// medium lends only for the call.
func (c *capture) handler() Handler {
	return func(f Frame) {
		f.Payload = slices.Clone(f.Payload)
		c.frames = append(c.frames, f)
	}
}

func TestUnitDisk(t *testing.T) {
	u := UnitDisk{Range: 100}
	if u.DeliveryProb(99) != 1 || u.DeliveryProb(100) != 1 {
		t.Error("in-range delivery should be certain")
	}
	if u.DeliveryProb(100.01) != 0 {
		t.Error("out-of-range delivery should be impossible")
	}
}

func TestLossyDisk(t *testing.T) {
	l := LossyDisk{Range: 100, FadeRange: 200, Loss: 0.2}
	if p := l.DeliveryProb(50); p != 0.8 {
		t.Errorf("inside range: %v, want 0.8", p)
	}
	if p := l.DeliveryProb(150); p != 0.4 {
		t.Errorf("gray zone midpoint: %v, want 0.4", p)
	}
	if p := l.DeliveryProb(250); p != 0 {
		t.Errorf("beyond fade: %v, want 0", p)
	}
	// Degenerate: FadeRange <= Range behaves like a lossy unit disk.
	d := LossyDisk{Range: 100, FadeRange: 0, Loss: 0.1}
	if p := d.DeliveryProb(101); p != 0 {
		t.Errorf("degenerate fade: %v, want 0", p)
	}
}

func newTestMedium(t *testing.T, rng float64) (*sim.Scheduler, *Medium) {
	t.Helper()
	s := sim.New(1)
	m := NewMedium(s, Config{Prop: UnitDisk{Range: rng}, PropDelay: time.Millisecond})
	return s, m
}

func TestBroadcastReachesOnlyInRange(t *testing.T) {
	s, m := newTestMedium(t, 100)
	var near, far, self capture
	a := addr.NodeAt(1)
	m.Attach(a, fixed(geo.Pt(0, 0)), self.handler())
	m.Attach(addr.NodeAt(2), fixed(geo.Pt(50, 0)), near.handler())
	m.Attach(addr.NodeAt(3), fixed(geo.Pt(500, 0)), far.handler())

	m.Send(a, addr.Broadcast, []byte("hello"))
	s.Run()

	if len(near.frames) != 1 {
		t.Fatalf("near station got %d frames, want 1", len(near.frames))
	}
	if len(far.frames) != 0 {
		t.Fatalf("far station got %d frames, want 0", len(far.frames))
	}
	if len(self.frames) != 0 {
		t.Fatalf("sender heard its own broadcast")
	}
	f := near.frames[0]
	if f.From != a || f.To != addr.Broadcast || string(f.Payload) != "hello" {
		t.Errorf("frame = %+v", f)
	}
}

func TestUnicastOnlyTargets(t *testing.T) {
	s, m := newTestMedium(t, 100)
	var b, c capture
	m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
	m.Attach(addr.NodeAt(2), fixed(geo.Pt(10, 0)), b.handler())
	m.Attach(addr.NodeAt(3), fixed(geo.Pt(20, 0)), c.handler())

	m.Send(addr.NodeAt(1), addr.NodeAt(2), []byte("x"))
	s.Run()

	if len(b.frames) != 1 || len(c.frames) != 0 {
		t.Fatalf("unicast delivery wrong: b=%d c=%d", len(b.frames), len(c.frames))
	}
}

func TestUnicastOutOfRangeDropped(t *testing.T) {
	s, m := newTestMedium(t, 100)
	var b capture
	m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
	m.Attach(addr.NodeAt(2), fixed(geo.Pt(300, 0)), b.handler())
	m.Send(addr.NodeAt(1), addr.NodeAt(2), []byte("x"))
	s.Run()
	if len(b.frames) != 0 {
		t.Fatal("out-of-range unicast delivered")
	}
	if st := m.Stats(); st.FramesLost != 1 {
		t.Errorf("FramesLost = %d, want 1", st.FramesLost)
	}
}

func TestDeliveryDelay(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, Config{Prop: UnitDisk{Range: 100}, PropDelay: 5 * time.Millisecond})
	var when time.Duration
	m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
	m.Attach(addr.NodeAt(2), fixed(geo.Pt(10, 0)), func(Frame) { when = s.Now() })
	m.Send(addr.NodeAt(1), addr.NodeAt(2), []byte("x"))
	s.Run()
	if when != 5*time.Millisecond {
		t.Errorf("delivered at %v, want 5ms", when)
	}
}

func TestDownStation(t *testing.T) {
	s, m := newTestMedium(t, 100)
	var b capture
	m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
	m.Attach(addr.NodeAt(2), fixed(geo.Pt(10, 0)), b.handler())

	m.SetDown(addr.NodeAt(2), true)
	m.Send(addr.NodeAt(1), addr.Broadcast, []byte("x"))
	s.Run()
	if len(b.frames) != 0 {
		t.Fatal("down station received a frame")
	}

	m.SetDown(addr.NodeAt(2), false)
	m.Send(addr.NodeAt(1), addr.Broadcast, []byte("x"))
	s.Run()
	if len(b.frames) != 1 {
		t.Fatal("revived station did not receive")
	}

	// A down sender transmits nothing.
	m.SetDown(addr.NodeAt(1), true)
	m.Send(addr.NodeAt(1), addr.Broadcast, []byte("x"))
	s.Run()
	if len(b.frames) != 1 {
		t.Fatal("down sender transmitted")
	}
}

func TestMovingNodesChangeConnectivity(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s, Config{Prop: UnitDisk{Range: 100}})
	pos := geo.Pt(50, 0)
	var got capture
	m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
	m.Attach(addr.NodeAt(2), func() geo.Point { return pos }, got.handler())

	m.Send(addr.NodeAt(1), addr.Broadcast, []byte("1"))
	s.Run()
	pos = geo.Pt(400, 0) // moves away
	m.Send(addr.NodeAt(1), addr.Broadcast, []byte("2"))
	s.Run()

	if len(got.frames) != 1 {
		t.Fatalf("got %d frames, want 1 (only while in range)", len(got.frames))
	}
	if got := m.Neighbors(addr.NodeAt(1)); len(got) != 0 {
		t.Errorf("Neighbors after the move = %v, want none", got)
	}
}

func TestNeighbors(t *testing.T) {
	_, m := newTestMedium(t, 100)
	m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
	m.Attach(addr.NodeAt(2), fixed(geo.Pt(50, 0)), nil)
	m.Attach(addr.NodeAt(3), fixed(geo.Pt(90, 0)), nil)
	m.Attach(addr.NodeAt(4), fixed(geo.Pt(300, 0)), nil)

	got := m.Neighbors(addr.NodeAt(1))
	want := []addr.Node{addr.NodeAt(2), addr.NodeAt(3)}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

func TestLossStatistics(t *testing.T) {
	s := sim.New(7)
	m := NewMedium(s, Config{Prop: LossyDisk{Range: 100, Loss: 0.5}})
	received := 0
	m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
	m.Attach(addr.NodeAt(2), fixed(geo.Pt(10, 0)), func(Frame) { received++ })

	const n = 2000
	for i := 0; i < n; i++ {
		m.Send(addr.NodeAt(1), addr.NodeAt(2), []byte("x"))
	}
	s.Run()

	if received < n*4/10 || received > n*6/10 {
		t.Errorf("received %d of %d with 50%% loss; outside [40%%,60%%]", received, n)
	}
	st := m.Stats()
	if st.FramesSent != n {
		t.Errorf("FramesSent = %d, want %d", st.FramesSent, n)
	}
	if st.FramesDelivered+st.FramesLost != n {
		t.Errorf("delivered+lost = %d, want %d", st.FramesDelivered+st.FramesLost, n)
	}
}

func TestSendFromUnknownStation(t *testing.T) {
	s, m := newTestMedium(t, 100)
	var b capture
	m.Attach(addr.NodeAt(2), fixed(geo.Pt(0, 0)), b.handler())
	m.Send(addr.NodeAt(99), addr.Broadcast, []byte("x")) // unattached sender
	s.Run()
	if len(b.frames) != 0 {
		t.Fatal("frame delivered from unknown station")
	}
	if m.Stats().FramesSent != 0 {
		t.Fatal("unknown sender counted as sent")
	}
}

func TestStatsBytes(t *testing.T) {
	s, m := newTestMedium(t, 100)
	m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
	m.Attach(addr.NodeAt(2), fixed(geo.Pt(10, 0)), func(Frame) {})
	m.Send(addr.NodeAt(1), addr.NodeAt(2), make([]byte, 64))
	s.Run()
	st := m.Stats()
	if st.BytesSent != 64 || st.BytesDelivered != 64 {
		t.Errorf("bytes sent/delivered = %d/%d, want 64/64", st.BytesSent, st.BytesDelivered)
	}
}

// TestSendCopiesPayload checks the medium owns what it sends: the caller
// may overwrite its buffer as soon as Send returns, and a receiver that
// sends mid-burst, from a buffer of its own or one the caller shares,
// changes nothing the burst's later receivers see.
func TestSendCopiesPayload(t *testing.T) {
	s, m := newTestMedium(t, 100)
	buf := []byte("first")
	var got [4]capture
	m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
	for i := range got {
		h := got[i].handler()
		if i == 0 {
			// The first receiver answers at once, reusing the caller's
			// buffer as a node reuses its transmit scratch.
			h = func(f Frame) {
				got[0].handler()(f)
				copy(buf, "reply")
				m.Send(addr.NodeAt(2), addr.Broadcast, buf)
			}
		}
		m.Attach(addr.NodeAt(2+i), fixed(geo.Pt(float64(10*(i+1)), 0)), h)
	}
	m.Send(addr.NodeAt(1), addr.Broadcast, buf)
	copy(buf, "xxxxx") // overwritten before any delivery
	s.Run()
	for i, c := range got {
		if len(c.frames) == 0 || c.frames[0].From != addr.NodeAt(1) || string(c.frames[0].Payload) != "first" {
			t.Fatalf("receiver %d: frames %q, want the first broadcast's bytes first", i, c.frames)
		}
	}
	// The reply reached every other receiver, after the first broadcast.
	for i, c := range got[1:] {
		if len(c.frames) != 2 || c.frames[1].From != addr.NodeAt(2) || string(c.frames[1].Payload) != "reply" {
			t.Fatalf("receiver %d: frames %q, want the reply second", i+1, c.frames)
		}
	}
}
