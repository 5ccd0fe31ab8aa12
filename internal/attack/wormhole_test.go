package attack

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/sim"
)

// wormholeRig wires two stations far out of mutual range with a tunnel
// between their neighborhoods.
func wormholeRig(t *testing.T, active func() bool) (*sim.Scheduler, *radio.Medium, *Wormhole, *[][]byte) {
	t.Helper()
	sched := sim.New(1)
	m := radio.NewMedium(sched, radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond})

	var farRx [][]byte
	m.Attach(addr.NodeAt(1), func() geo.Point { return geo.Pt(0, 0) }, nil)
	m.Attach(addr.NodeAt(2), func() geo.Point { return geo.Pt(1000, 0) }, func(f radio.Frame) {
		farRx = append(farRx, append([]byte(nil), f.Payload...))
	})

	wh := &Wormhole{MouthA: addr.NodeAt(90), MouthB: addr.NodeAt(91), Delay: time.Millisecond, Active: active}
	wh.Install(sched, m, func() geo.Point { return geo.Pt(10, 0) }, func() geo.Point { return geo.Pt(990, 0) })
	return sched, m, wh, &farRx
}

func TestWormholeTunnelsBroadcasts(t *testing.T) {
	sched, m, wh, farRx := wormholeRig(t, nil)

	// Node 1 and node 2 are 1000 m apart with 150 m radios: no direct
	// path. The tunnel must carry node 1's broadcast to node 2.
	m.Send(addr.NodeAt(1), addr.Broadcast, []byte{1, 42})
	sched.Run()

	if wh.Tunneled() != 1 {
		t.Fatalf("Tunneled = %d, want 1", wh.Tunneled())
	}
	if len(*farRx) != 1 || (*farRx)[0][1] != 42 {
		t.Fatalf("far node received %v", *farRx)
	}
}

func TestWormholeDoesNotFeedBack(t *testing.T) {
	sched, m, wh, _ := wormholeRig(t, nil)

	// The far mouth's re-broadcast is heard by the far mouth's neighbors
	// — including nothing that loops: total tunneled frames stay 1 per
	// original broadcast even after the queue drains.
	m.Send(addr.NodeAt(1), addr.Broadcast, []byte{1, 7})
	sched.Run()
	if wh.Tunneled() != 1 {
		t.Fatalf("tunnel fed back: Tunneled = %d", wh.Tunneled())
	}
	if sched.Pending() != 0 {
		t.Fatalf("events still pending: %d", sched.Pending())
	}
}

func TestWormholeActiveGate(t *testing.T) {
	on := false
	sched, m, wh, farRx := wormholeRig(t, func() bool { return on })

	m.Send(addr.NodeAt(1), addr.Broadcast, []byte{1})
	sched.Run()
	if wh.Tunneled() != 0 || len(*farRx) != 0 {
		t.Fatal("inactive tunnel relayed")
	}
	on = true
	m.Send(addr.NodeAt(1), addr.Broadcast, []byte{1})
	sched.Run()
	if wh.Tunneled() != 1 || len(*farRx) != 1 {
		t.Fatalf("active tunnel did not relay: tunneled=%d rx=%d", wh.Tunneled(), len(*farRx))
	}
}

func TestTwoWormholesDoNotPingPong(t *testing.T) {
	sched := sim.New(1)
	m := radio.NewMedium(sched, radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond})
	m.Attach(addr.NodeAt(1), func() geo.Point { return geo.Pt(0, 0) }, nil)

	// Two tunnels whose far mouths share a neighborhood: without the
	// shared IgnoreFrom set, tunnel A's output at (1000,0) is overheard
	// by tunnel B's mouth at (1010,0), relayed back near the origin,
	// re-tunneled by A, and so on forever.
	shared := addr.NewSet(addr.NodeAt(90), addr.NodeAt(91), addr.NodeAt(92), addr.NodeAt(93))
	wa := &Wormhole{MouthA: addr.NodeAt(90), MouthB: addr.NodeAt(91), IgnoreFrom: shared, Delay: time.Millisecond}
	wb := &Wormhole{MouthA: addr.NodeAt(92), MouthB: addr.NodeAt(93), IgnoreFrom: shared, Delay: time.Millisecond}
	wa.Install(sched, m, func() geo.Point { return geo.Pt(10, 0) }, func() geo.Point { return geo.Pt(1000, 0) })
	wb.Install(sched, m, func() geo.Point { return geo.Pt(1010, 0) }, func() geo.Point { return geo.Pt(20, 0) })

	m.Send(addr.NodeAt(1), addr.Broadcast, []byte{1, 5})
	sched.Run()

	// One original broadcast: tunnel A hears it (1 relay), tunnel B's
	// near mouth (20,0) also hears the original (1 relay). Neither may
	// relay the other's output.
	if wa.Tunneled() != 1 || wb.Tunneled() != 1 {
		t.Fatalf("tunnels ping-ponged: a=%d b=%d", wa.Tunneled(), wb.Tunneled())
	}
	if sched.Pending() != 0 {
		t.Fatalf("events still pending: %d", sched.Pending())
	}
}

func TestWormholeIgnoresUnicast(t *testing.T) {
	sched, m, wh, _ := wormholeRig(t, nil)

	// A unicast between co-located stations is not overheard by the
	// mouth: the tunnel is a passive sniffer of broadcasts.
	m.Attach(addr.NodeAt(3), func() geo.Point { return geo.Pt(20, 0) }, nil)
	m.Send(addr.NodeAt(1), addr.NodeAt(3), []byte{2, 9})
	sched.Run()
	if wh.Tunneled() != 0 {
		t.Fatalf("unicast tunneled: %d", wh.Tunneled())
	}
}

func TestColludersRingAndProtection(t *testing.T) {
	a, b, c := addr.NodeAt(5), addr.NodeAt(6), addr.NodeAt(7)
	col := NewColluders(0, a, b, c)

	// Ring spoofing: member i claims member i+1 (mod n), defaulting to
	// the claim variant.
	for i, wantTarget := range []addr.Node{b, c, a} {
		sp := col.SpooferFor(i)
		if sp.Mode != SpoofClaim {
			t.Errorf("member %d mode = %v", i, sp.Mode)
		}
		if sp.Target != wantTarget {
			t.Errorf("member %d target = %v, want %v", i, sp.Target, wantTarget)
		}
	}

	// Each member lies about every OTHER member, never about itself or
	// outsiders.
	honest := addr.NodeAt(9)
	liar := col.LiarFor(0)
	if got, _ := liar.Mutate(b, false, true); !got {
		t.Error("member 0 told the truth about member 1")
	}
	if got, _ := liar.Mutate(honest, true, true); !got {
		t.Error("member 0 lied about an outsider")
	}
	if col.Lies() != 1 {
		t.Errorf("Lies = %d, want 1", col.Lies())
	}

	// The shared gate silences every member's spoofer at once.
	on := false
	col.Active = func() bool { return on }
	h := baseHello()
	col.SpooferFor(0).Hook()(h)
	if col.Spoofed() != 0 {
		t.Error("gated colluder spoofed")
	}
	on = true
	col.SpooferFor(0).Hook()(h)
	if col.Spoofed() != 1 {
		t.Errorf("Spoofed = %d, want 1", col.Spoofed())
	}
}

func TestBlackHoleActiveGate(t *testing.T) {
	on := false
	bh := &BlackHole{Active: func() bool { return on }}
	hook := bh.Hooks().DropForward
	if hook(nil, addr.NodeAt(1)) {
		t.Error("inactive black hole dropped")
	}
	on = true
	if !hook(nil, addr.NodeAt(1)) {
		t.Error("active black hole relayed")
	}
	if bh.Dropped() != 1 {
		t.Errorf("Dropped = %d", bh.Dropped())
	}
}
