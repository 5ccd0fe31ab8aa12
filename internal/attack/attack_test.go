package attack

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/wire"
)

func baseHello() *wire.Hello {
	return &wire.Hello{
		HTime: 2 * time.Second,
		Will:  wire.WillDefault,
		Links: []wire.LinkBlock{
			{Code: wire.MakeLinkCode(wire.NeighMPR, wire.LinkSym), Neighbors: []addr.Node{addr.NodeAt(2)}},
			{Code: wire.MakeLinkCode(wire.NeighSym, wire.LinkSym), Neighbors: []addr.Node{addr.NodeAt(3), addr.NodeAt(4)}},
		},
	}
}

func TestSpoofPhantomAddsForgedLink(t *testing.T) {
	s := &LinkSpoofer{Mode: SpoofPhantom, Target: addr.NodeAt(99)}
	h := baseHello()
	s.Hook()(h)
	if !h.SymNeighbors(nil).Has(addr.NodeAt(99)) {
		t.Fatalf("phantom not advertised: %v", h.SymNeighbors(nil))
	}
	// Real links untouched.
	for _, n := range []int{2, 3, 4} {
		if !h.SymNeighbors(nil).Has(addr.NodeAt(n)) {
			t.Errorf("real neighbor %d lost", n)
		}
	}
	if s.Spoofed() != 1 {
		t.Errorf("Spoofed = %d", s.Spoofed())
	}
}

func TestSpoofClaimSameMechanism(t *testing.T) {
	s := &LinkSpoofer{Mode: SpoofClaim, Target: addr.NodeAt(7)}
	h := baseHello()
	s.Hook()(h)
	if !h.SymNeighbors(nil).Has(addr.NodeAt(7)) {
		t.Fatal("claimed non-neighbor not advertised")
	}
}

func TestSpoofOmitRemovesNeighbor(t *testing.T) {
	s := &LinkSpoofer{Mode: SpoofOmit, Target: addr.NodeAt(3)}
	h := baseHello()
	s.Hook()(h)
	if h.SymNeighbors(nil).Has(addr.NodeAt(3)) {
		t.Fatal("omitted neighbor still advertised")
	}
	if !h.SymNeighbors(nil).Has(addr.NodeAt(2)) || !h.SymNeighbors(nil).Has(addr.NodeAt(4)) {
		t.Error("other neighbors damaged")
	}
}

func TestSpoofOmitDropsEmptyBlocks(t *testing.T) {
	s := &LinkSpoofer{Mode: SpoofOmit, Target: addr.NodeAt(2)}
	h := baseHello()
	s.Hook()(h)
	for _, lb := range h.Links {
		if len(lb.Neighbors) == 0 {
			t.Fatal("empty link block left behind")
		}
	}
}

func TestSpooferActiveGate(t *testing.T) {
	active := true
	s := &LinkSpoofer{Mode: SpoofPhantom, Target: addr.NodeAt(99), Active: func() bool { return active }}
	h := baseHello()
	s.Hook()(h)
	if !h.SymNeighbors(nil).Has(addr.NodeAt(99)) {
		t.Fatal("active spoofer idle")
	}
	active = false
	h2 := baseHello()
	s.Hook()(h2)
	if h2.SymNeighbors(nil).Has(addr.NodeAt(99)) {
		t.Fatal("inactive spoofer still spoofing")
	}
	if s.Spoofed() != 1 {
		t.Errorf("Spoofed = %d, want 1", s.Spoofed())
	}
}

func TestSpoofModeString(t *testing.T) {
	if SpoofPhantom.String() != "phantom-neighbor" ||
		SpoofClaim.String() != "claimed-non-neighbor" ||
		SpoofOmit.String() != "omitted-neighbor" ||
		SpoofMode(0).String() != "unknown" {
		t.Error("SpoofMode strings wrong")
	}
}

func TestGrayHoleRatio(t *testing.T) {
	g := &GrayHole{Ratio: 0.5, Rand: rand.New(rand.NewSource(1))}
	drop := 0
	hook := func() bool {
		if g.Rand.Float64() < g.Ratio {
			g.dropped++
			return true
		}
		g.relayed++
		return false
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if hook() {
			drop++
		}
	}
	if drop < n*4/10 || drop > n*6/10 {
		t.Errorf("gray hole dropped %d of %d with ratio 0.5", drop, n)
	}
	if g.Dropped()+g.Relayed() != n {
		t.Errorf("counter mismatch: %d + %d != %d", g.Dropped(), g.Relayed(), n)
	}
}

func TestStormEmitsForgedTCs(t *testing.T) {
	sched := sim.New(1)
	var packets [][]byte
	storm := &Storm{
		Spoof:      addr.NodeAt(9),
		Interval:   100 * time.Millisecond,
		Advertised: []addr.Node{addr.NodeAt(1)},
	}
	tk := storm.Start(sched, func(b []byte) { packets = append(packets, b) })
	sched.RunUntil(2 * time.Second)
	tk.Stop()

	if storm.Sent() < 15 {
		t.Fatalf("storm sent only %d packets in 2s at 10/s", storm.Sent())
	}
	// Every packet decodes to a TC masquerading as the victim.
	seen := make(map[uint16]bool)
	for _, raw := range packets {
		p, err := wire.DecodePacket(raw)
		if err != nil {
			t.Fatalf("storm packet does not decode: %v", err)
		}
		m := p.Messages[0]
		if m.Originator != addr.NodeAt(9) || m.Type() != wire.MsgTC {
			t.Fatalf("forged message = %+v", m)
		}
		if seen[m.Seq] {
			t.Fatal("storm reused a sequence number")
		}
		seen[m.Seq] = true
	}
}

func TestReplayerReplaysDelayedCopies(t *testing.T) {
	sched := sim.New(2)
	var sent [][]byte
	r := &Replayer{Delay: 5 * time.Second, Copies: 3}
	raw := []byte{1, 2, 3}
	r.Capture(sched, func(b []byte) { sent = append(sent, b) }, raw)

	sched.RunUntil(4 * time.Second)
	if len(sent) != 0 {
		t.Fatal("replayed before delay")
	}
	sched.RunUntil(20 * time.Second)
	if len(sent) != 3 {
		t.Fatalf("replayed %d copies, want 3", len(sent))
	}
	// The captured buffer is a copy: mutating the original is safe.
	raw[0] = 99
	if sent[0][0] == 99 {
		t.Error("replayer aliased the captured packet")
	}
}

func TestLiarInvertsAnswers(t *testing.T) {
	l := &Liar{}
	exists, answered := l.Mutate(addr.NodeAt(5), true, true)
	if exists || !answered {
		t.Errorf("liar answer = %v,%v; want inverted", exists, answered)
	}
	// A liar fabricates an answer even when it had none.
	exists, answered = l.Mutate(addr.NodeAt(5), false, false)
	if !exists || !answered {
		t.Errorf("liar fabricated = %v,%v", exists, answered)
	}
	if l.Lies() != 2 {
		t.Errorf("Lies = %d", l.Lies())
	}
}

func TestLiarProtectsOnlyColluders(t *testing.T) {
	l := &Liar{Protect: addr.NewSet(addr.NodeAt(9))}
	// About the colluder: lie.
	exists, _ := l.Mutate(addr.NodeAt(9), false, true)
	if !exists {
		t.Error("liar told the truth about its colluder")
	}
	// About anyone else: honest.
	exists, answered := l.Mutate(addr.NodeAt(5), false, true)
	if exists || !answered {
		t.Error("liar lied about a non-colluder")
	}
	if l.Lies() != 1 {
		t.Errorf("Lies = %d, want 1", l.Lies())
	}
}
