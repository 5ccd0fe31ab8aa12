package olsr

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// helloPacket encodes a one-HELLO packet from orig.
func helloPacket(orig addr.Node, seq uint16, blocks ...wire.LinkBlock) []byte {
	return (&wire.Packet{Seq: seq, Messages: []wire.Message{{
		VTime: 6 * time.Second, Originator: orig, TTL: 1, Seq: seq,
		Body: &wire.Hello{HTime: 2 * time.Second, Will: wire.WillDefault, Links: blocks},
	}}}).Encode()
}

// tcPacket encodes a one-TC packet from orig.
func tcPacket(orig addr.Node, seq, ansn uint16, ttl uint8, adv ...addr.Node) []byte {
	return (&wire.Packet{Seq: seq, Messages: []wire.Message{{
		VTime: 15 * time.Second, Originator: orig, TTL: ttl, Seq: seq,
		Body: &wire.TC{ANSN: ansn, Advertised: adv},
	}}}).Encode()
}

// tcBurst encodes one packet carrying count TCs from orig, numbered from
// seq on, so all of them are live in the duplicate set at once.
func tcBurst(orig addr.Node, seq uint16, count int, adv ...addr.Node) []byte {
	p := &wire.Packet{Seq: seq}
	for i := range count {
		p.Messages = append(p.Messages, wire.Message{
			VTime: 15 * time.Second, Originator: orig, TTL: 2, Seq: seq + uint16(i),
			Body: &wire.TC{ANSN: 1, Advertised: adv},
		})
	}
	return p.Encode()
}

// warmNode returns a started node with three symmetric neighbors, the
// first of which selected it as an MPR, a 2-hop neighborhood and one TC
// originator's topology.
func warmNode() (*Node, *sim.Scheduler) {
	sched := sim.New(1)
	n := New(Config{Addr: eqSelf}, sched, func([]byte) {}, &auditlog.Buffer{})
	n.Start()
	for i, nb := range eqPeers[:3] {
		nt := wire.NeighSym
		if i == 0 {
			nt = wire.NeighMPR
		}
		n.HandlePacket(nb, helloPacket(nb, 1,
			wire.LinkBlock{Code: wire.MakeLinkCode(nt, wire.LinkSym), Neighbors: []addr.Node{eqSelf}},
			wire.LinkBlock{Code: wire.MakeLinkCode(wire.NeighSym, wire.LinkSym), Neighbors: []addr.Node{eqFar[i]}}))
	}
	sched.RunUntil(time.Second)
	n.HandlePacket(eqPeers[0], tcPacket(eqFar[0], 1, 1, 4, eqFar[1], eqFar[2]))
	return n, sched
}

// FuzzHandlePacket hands arbitrary packet bytes from an arbitrary sender
// to a warm node, twice, with a wait and an expiry pass after each. A
// spoofed sender or originator from outside the population lands in the
// protocol tables as a key like any other, and in the duplicate set's
// spill. Nothing may panic, every table must stay strictly ordered, no
// two live carved slices may share storage, no expired tuple may survive
// the pass, and the node's record count must match its log.
func FuzzHandlePacket(f *testing.F) {
	outsider := addr.NodeAt(200)
	f.Add(uint32(eqPeers[0]), []byte{}, uint8(1))
	f.Add(uint32(eqPeers[1]), []byte{0, 4, 0, 1}, uint8(0))
	f.Add(uint32(outsider), helloPacket(outsider, 7,
		wire.LinkBlock{Code: wire.MakeLinkCode(wire.NeighMPR, wire.LinkSym), Neighbors: []addr.Node{eqSelf, eqFar[3]}},
		wire.LinkBlock{Code: wire.MakeLinkCode(wire.NeighNot, wire.LinkLost), Neighbors: []addr.Node{eqPeers[1]}}), uint8(20))
	f.Add(uint32(eqPeers[0]), tcPacket(outsider, 3, 65535, 2, eqSelf, eqFar[3], eqFar[3], outsider), uint8(160))
	// More live TCs from one originator than its duplicate window holds,
	// across the sequence wrap; and a TC from past the dense range.
	f.Add(uint32(eqPeers[0]), tcBurst(eqFar[1], 65530, 2*dupWindow, eqFar[3]), uint8(10))
	f.Add(uint32(eqPeers[0]), tcPacket(addr.NodeAt(dupSlots), 4, 2, 3, eqFar[2]), uint8(5))
	f.Add(uint32(eqPeers[2]), helloPacket(eqPeers[2], 2,
		wire.LinkBlock{Code: wire.MakeLinkCode(wire.NeighNot, wire.LinkSym), Neighbors: []addr.Node{eqFar[2]}}), uint8(70))
	f.Fuzz(func(t *testing.T, sender uint32, data []byte, wait uint8) {
		n, sched := warmNode()
		for range 2 {
			n.HandlePacket(addr.Node(sender), data)
			n.Routes()
			if err := checkOrdered(n); err != nil {
				t.Fatal(err)
			}
			if err := checkDisjoint(n); err != nil {
				t.Fatal(err)
			}
			if err := checkRecords(n); err != nil {
				t.Fatal(err)
			}
			sched.RunUntil(sched.Now() + time.Duration(wait)*100*time.Millisecond)
			n.expire()
			n.Routes()
			if err := checkOrdered(n); err != nil {
				t.Fatal(err)
			}
			if err := checkSwept(n); err != nil {
				t.Fatal(err)
			}
			if err := checkRecords(n); err != nil {
				t.Fatal(err)
			}
		}
	})
}
