package radio

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/sim"
)

// Station churn edge cases, exercised under both cell modes: power-off
// while frames are in flight, re-attachment of a live id, and the
// down-count bookkeeping the grid's lost-frame accounting leans on.

// eachMedium runs the test body once on the one-cell medium (subtest
// "scan", Grid unset) and once on the grid medium.
func eachMedium(t *testing.T, body func(t *testing.T, s *sim.Scheduler, m *Medium)) {
	t.Helper()
	for _, grid := range []bool{false, true} {
		name := "scan"
		if grid {
			name = "grid"
		}
		t.Run(name, func(t *testing.T) {
			s := sim.New(3)
			m := NewMedium(s, Config{Prop: UnitDisk{Range: 100}, PropDelay: time.Millisecond, Grid: grid})
			body(t, s, m)
		})
	}
}

func TestSetDownMidFlight(t *testing.T) {
	eachMedium(t, func(t *testing.T, s *sim.Scheduler, m *Medium) {
		var got capture
		m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
		m.Attach(addr.NodeAt(2), fixed(geo.Pt(50, 0)), got.handler())

		// The frame is accepted by the loss model at send time; the
		// receiver powers off before the delivery event fires.
		m.Send(addr.NodeAt(1), addr.Broadcast, []byte("x"))
		m.SetDown(addr.NodeAt(2), true)
		s.Run()

		if len(got.frames) != 0 {
			t.Fatal("frame delivered to a station that went down mid-flight")
		}
		// The medium counts the frame as delivered (the loss model passed
		// it); only the handler invocation is suppressed. Both cell
		// modes must agree on that accounting.
		if st := m.Stats(); st.FramesDelivered != 1 || st.FramesLost != 0 {
			t.Fatalf("stats = %+v, want FramesDelivered=1 FramesLost=0", st)
		}

		// Powering back up restores both reception and range queries.
		m.SetDown(addr.NodeAt(2), false)
		m.Send(addr.NodeAt(1), addr.Broadcast, []byte("y"))
		s.Run()
		if len(got.frames) != 1 {
			t.Fatalf("got %d frames after power-up, want 1", len(got.frames))
		}

		// Within one burst: the first receiver's handler powers off a
		// later receiver of the same frame, which then gets nothing, as
		// if each delivery were its own event; the one after it still
		// receives.
		var later, last capture
		m.Attach(addr.NodeAt(3), fixed(geo.Pt(60, 0)), later.handler())
		m.Attach(addr.NodeAt(4), fixed(geo.Pt(70, 0)), last.handler())
		m.Attach(addr.NodeAt(2), fixed(geo.Pt(50, 0)), func(f Frame) {
			got.handler()(f)
			m.SetDown(addr.NodeAt(3), true)
		})
		m.Send(addr.NodeAt(1), addr.Broadcast, []byte("z"))
		s.Run()
		if len(got.frames) != 2 || len(later.frames) != 0 || len(last.frames) != 1 {
			t.Fatalf("frames got/later/last = %d/%d/%d, want 2/0/1",
				len(got.frames), len(later.frames), len(last.frames))
		}
		if st := m.Stats(); st.FramesDelivered != 5 || st.FramesLost != 0 {
			t.Fatalf("stats = %+v, want FramesDelivered=5 FramesLost=0", st)
		}
	})
}

func TestDownStationExcludedEverywhere(t *testing.T) {
	eachMedium(t, func(t *testing.T, s *sim.Scheduler, m *Medium) {
		m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
		m.Attach(addr.NodeAt(2), fixed(geo.Pt(50, 0)), nil)
		m.Attach(addr.NodeAt(3), fixed(geo.Pt(90, 0)), nil)
		m.SetDown(addr.NodeAt(2), true)
		m.SetDown(addr.NodeAt(2), true) // idempotent — must not double-count

		if got := m.Neighbors(addr.NodeAt(1)); len(got) != 1 || got[0] != addr.NodeAt(3) {
			t.Fatalf("Neighbors with 2 down = %v, want [3]", got)
		}
		if got := m.Neighbors(addr.NodeAt(2)); got != nil {
			t.Fatalf("Neighbors of a down station = %v, want none", got)
		}
		// A down station is skipped silently: no lost-frame charge. Both
		// cell modes must account identically.
		m.Send(addr.NodeAt(1), addr.Broadcast, []byte("x"))
		s.Run()
		if st := m.Stats(); st.FramesDelivered != 1 || st.FramesLost != 0 {
			t.Fatalf("stats = %+v, want FramesDelivered=1 FramesLost=0", st)
		}
	})
}

func TestReAttachExistingID(t *testing.T) {
	eachMedium(t, func(t *testing.T, s *sim.Scheduler, m *Medium) {
		var first, second capture
		m.Attach(addr.NodeAt(1), fixed(geo.Pt(0, 0)), nil)
		m.Attach(addr.NodeAt(2), fixed(geo.Pt(50, 0)), first.handler())
		m.Attach(addr.NodeAt(3), fixed(geo.Pt(90, 0)), nil)

		// Re-attach 2 while down, at a new position, with a new handler:
		// the down mark clears, the old handler is gone, and the station
		// keeps its original rank in the deterministic order.
		m.SetDown(addr.NodeAt(2), true)
		m.Attach(addr.NodeAt(2), fixed(geo.Pt(60, 0)), second.handler())

		got := m.Neighbors(addr.NodeAt(1))
		want := []addr.Node{addr.NodeAt(2), addr.NodeAt(3)}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("Neighbors after re-attach = %v, want %v (rank preserved, down cleared)", got, want)
		}

		m.Send(addr.NodeAt(1), addr.Broadcast, []byte("x"))
		s.Run()
		if len(first.frames) != 0 {
			t.Fatal("stale handler still receiving after re-attach")
		}
		if len(second.frames) != 1 {
			t.Fatalf("new handler got %d frames, want 1", len(second.frames))
		}
		// Re-attach must not duplicate the station: exactly 2 candidates
		// were eligible, one delivery each, no phantom lost frames.
		if st := m.Stats(); st.FramesDelivered != 2 || st.FramesLost != 0 {
			t.Fatalf("stats = %+v, want FramesDelivered=2 FramesLost=0", st)
		}
	})
}

func TestNeighborsIntoAgreesWithNeighbors(t *testing.T) {
	eachMedium(t, func(t *testing.T, _ *sim.Scheduler, m *Medium) {
		rng := rand.New(rand.NewSource(11)) //nolint:gosec // test
		arena := geo.Arena(400, 400)
		const n = 40
		for i := 1; i <= n; i++ {
			p := arena.RandPoint(rng)
			m.Attach(addr.NodeAt(i), fixed(p), nil)
		}
		m.SetDown(addr.NodeAt(5), true)

		buf := make([]addr.Node, 0, n)
		for i := 1; i <= n; i++ {
			id := addr.NodeAt(i)
			fresh := m.Neighbors(id)
			buf = m.NeighborsInto(id, buf[:0])
			if len(fresh) != len(buf) {
				t.Fatalf("station %d: NeighborsInto %v, Neighbors %v", i, buf, fresh)
			}
			for k := range fresh {
				if fresh[k] != buf[k] {
					t.Fatalf("station %d: order differs: NeighborsInto %v, Neighbors %v", i, buf, fresh)
				}
			}
		}
	})
}
