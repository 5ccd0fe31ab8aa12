package core

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/detect"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/wire"
)

// TestAllocCeilingOLSREmission pins a node's OLSR send path, part of the
// allocation tier (`make alloc`): on a warm network, one encoded packet
// handed to the router's send function, prefixed in the node's transmit
// scratch, broadcast by the medium and delivered to four listening
// stations allocates nothing.
func TestAllocCeilingOLSREmission(t *testing.T) {
	w := NewNetwork(Config{Seed: 1, Radio: radio.Config{Prop: radio.UnitDisk{Range: 100}}})
	n := w.AddNode(NodeSpec{ID: addr.NodeAt(1), Pos: mobility.Static{}})
	heard := 0
	for i := 2; i <= 5; i++ {
		p := geo.Pt(float64(10*i), 0)
		w.Medium.Attach(addr.NodeAt(i), func() geo.Point { return p }, func(f radio.Frame) {
			if f.Payload[0] == PayloadOLSR {
				heard++
			}
		})
	}
	pkt := (&wire.Packet{Seq: 1, Messages: []wire.Message{{
		VTime: 6 * time.Second, Originator: n.ID, TTL: 1, Seq: 1,
		Body: &wire.Hello{HTime: 2 * time.Second, Will: wire.WillDefault},
	}}}).Encode()
	emit := func() {
		n.broadcastOLSR(pkt)
		w.Sched.Run()
	}
	emit()
	if got := testing.AllocsPerRun(100, emit); got > 0 {
		t.Errorf("core OLSR emission: %.1f allocs/run, ceiling 0", got)
	}
	if want := 102 * 4; heard != want {
		t.Fatalf("stations heard %d OLSR frames, want %d", heard, want)
	}
}

// TestAllocCeilingTreeHeadRx pins the evidence plane's gossip receive
// path, part of the allocation tier (`make alloc`): on a warm network, a
// node handed a tree-head envelope decodes it into the network's scratch
// and allocates nothing, whether the head grew with a proof it verifies
// and relays, equals the recorded head, or is stale.
func TestAllocCeilingTreeHeadRx(t *testing.T) {
	w := NewNetwork(Config{Seed: 1, Evidence: true, Radio: radio.Config{Prop: radio.UnitDisk{Range: 100}}})
	n := w.AddNode(NodeSpec{ID: addr.NodeAt(1), Pos: mobility.Static{}})
	origin := addr.NodeAt(2)

	var log auditlog.Buffer
	log.SetSealKey(nil)
	for i := range 20 {
		log.Append(auditlog.Record{Kind: auditlog.KindHelloTx, Fields: []auditlog.Field{auditlog.FInt("i", i)}})
	}
	old, err := log.TreeHeadAt(7)
	if err != nil {
		t.Fatal(err)
	}
	head := log.TreeHead()
	proof, err := log.ConsistencyProof(nil, old.Size, head.Size)
	if err != nil || len(proof.Path) == 0 {
		t.Fatalf("consistency proof %d -> %d: %v, %v", old.Size, head.Size, proof, err)
	}
	gossip := func(h auditlog.TreeHead, prev uint64, p *auditlog.Proof) []byte {
		return appendCtrlMsg(nil, &ctrlMsg{Kind: ctrlTreeHead, From: origin, To: addr.Broadcast,
			TTL: ctrlTTL, Origin: origin, Head: &h, HeadPrev: prev, HeadProof: p})
	}
	for _, c := range []struct {
		name  string
		known auditlog.TreeHead
		body  []byte
	}{
		{"grown head", old, gossip(head, old.Size, &proof)},
		{"equal head", head, gossip(head, 0, nil)},
		{"stale head", head, gossip(old, 0, nil)},
	} {
		rx := func() {
			n.heads[origin] = c.known
			n.handleCtrl(c.body)
			w.Sched.Run()
		}
		rx()
		if got := testing.AllocsPerRun(100, rx); got > 0 {
			t.Errorf("core tree-head receive, %s: %.1f allocs/run, ceiling 0", c.name, got)
		}
		if n.heads[origin] != head || n.gossipTainted.Has(origin) {
			t.Fatalf("%s: recorded head %v (tainted %v), want %v", c.name, n.heads[origin], n.gossipTainted.Has(origin), head)
		}
	}
}

// TestAllocCeilingGossipHead pins the evidence plane's gossip send path,
// part of the allocation tier (`make alloc`): on a warm network, a node
// whose sealed log grew since its last broadcast builds its head, the
// consistency proof back to that broadcast and the envelope in its own
// scratch, and floods them to four listening stations, allocating
// nothing. Building them afresh took 5.
func TestAllocCeilingGossipHead(t *testing.T) {
	w := NewNetwork(Config{Seed: 1, Evidence: true, Radio: radio.Config{Prop: radio.UnitDisk{Range: 100}}})
	n := w.AddNode(NodeSpec{ID: addr.NodeAt(1), Pos: mobility.Static{}})
	heard := 0
	for i := 2; i <= 5; i++ {
		p := geo.Pt(float64(10*i), 0)
		w.Medium.Attach(addr.NodeAt(i), func() geo.Point { return p }, func(f radio.Frame) {
			if f.Payload[0] == PayloadCtrl {
				heard++
			}
		})
	}
	i := 0
	gossip := func() {
		for range 3 {
			n.Logs.Append(auditlog.Record{Kind: auditlog.KindHelloTx, Fields: []auditlog.Field{auditlog.FInt("i", i)}})
			i++
		}
		n.gossipHead()
		w.Sched.Run()
	}
	// Warm-up: the first broadcast has no earlier head to anchor to, and
	// growing the log to 3000 records sizes the proof scratch.
	for range 1000 {
		gossip()
	}
	if got := testing.AllocsPerRun(100, gossip); got > 0 {
		t.Errorf("core tree-head gossip: %.1f allocs/run, ceiling 0", got)
	}
	if want := 1101 * 4; heard != want {
		t.Fatalf("stations heard %d tree-head frames, want %d", heard, want)
	}
	if n.prevGossip != n.Logs.SealedSize() || len(n.out.proof.Path) == 0 {
		t.Fatalf("last broadcast: head %d of sealed %d, proof %v", n.prevGossip, n.Logs.SealedSize(), n.out.proof)
	}
}

// hearHello hands n's router a HELLO from `from` that lists n and sym as
// its symmetric neighbors, so n holds a symmetric link to `from` for the
// HELLO's 6s validity and knows what `from` advertises.
func hearHello(n *Node, from addr.Node, sym ...addr.Node) {
	pkt := wire.Packet{Seq: 1, Messages: []wire.Message{{
		VTime: 6 * time.Second, Originator: from, TTL: 1, Seq: 1,
		Body: &wire.Hello{HTime: 2 * time.Second, Will: wire.WillDefault, Links: []wire.LinkBlock{
			{Code: wire.MakeLinkCode(wire.NeighSym, wire.LinkSym), Neighbors: append([]addr.Node{n.ID}, sym...)},
		}},
	}}}
	n.Router.HandlePacket(from, pkt.Encode())
}

// TestAllocCeilingVerifyRx pins the verify exchange's receive path, part
// of the allocation tier (`make alloc`): on a warm network, a relay
// handed a verify request or an evidence-free verify reply decodes it
// into the network's scratch and forwards it, and a responder handed a
// request addressed to it answers from its neighbor scan and sends the
// reply, each allocating nothing. A relay handed an evidence reply
// decodes its head, consistency proof and citation into the scratch
// too, and allocates only the copy of the cited record. Stations 1 (the
// investigator), 3 and 9 (the suspect) are bare radios; nodes 2 and 4
// hold symmetric links to all of them.
func TestAllocCeilingVerifyRx(t *testing.T) {
	w := NewNetwork(Config{Seed: 1, Radio: radio.Config{Prop: radio.UnitDisk{Range: 100}}})
	investigator, relay, dest, responder, suspect := addr.NodeAt(1), addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4), addr.NodeAt(9)
	heard := map[addr.Node]int{}
	for i, id := range []addr.Node{investigator, dest, suspect} {
		p := geo.Pt(float64(10*i), 10)
		w.Medium.Attach(id, func() geo.Point { return p }, func(f radio.Frame) { heard[id]++ })
	}
	nodes := []*Node{
		w.AddNode(NodeSpec{ID: relay, Pos: mobility.Static{}}),
		w.AddNode(NodeSpec{ID: responder, Pos: mobility.Static{}}),
	}
	for _, n := range nodes {
		for _, nb := range []addr.Node{investigator, dest, suspect} {
			hearHello(n, nb)
		}
	}
	avoid := []addr.Node{suspect}
	req := func(to addr.Node) []byte {
		return appendCtrlMsg(nil, &ctrlMsg{Kind: ctrlVerifyReq, From: investigator, To: to, TTL: ctrlTTL,
			Avoid: avoid, Req: &detect.VerifyRequest{ID: 7, Investigator: investigator, Responder: to,
				Suspect: suspect, Link: addr.NodeAt(77), Advertised: true, Avoid: avoid}})
	}
	rep := func(evidence bool) []byte {
		r := &detect.VerifyReply{ID: 7, Responder: dest, Suspect: suspect, Link: addr.NodeAt(77), Answered: true}
		if evidence {
			proof := auditlog.Proof{Path: []auditlog.Hash{{1}, {2}, {3}}}
			r.Head = &auditlog.TreeHead{Size: 40, Root: auditlog.Hash{4}}
			r.Consistency = &proof
			r.Citations = []detect.Citation{{Index: 39, Record: "t=1s node=10.0.0.3 kind=hello_rx from=10.0.0.77", Proof: proof}}
		}
		return appendCtrlMsg(nil, &ctrlMsg{Kind: ctrlVerifyRep, From: dest, To: investigator, TTL: ctrlTTL,
			Avoid: avoid, Rep: r})
	}
	for _, c := range []struct {
		name    string
		at      *Node
		body    []byte
		to      addr.Node
		ceiling float64
	}{
		{"relayed request", nodes[0], req(dest), dest, 0},
		{"relayed reply", nodes[0], rep(false), investigator, 0},
		// The cited record's string copy; the decode into fresh
		// evidence objects took 6.
		{"relayed evidence reply", nodes[0], rep(true), investigator, 1},
		{"answered request", nodes[1], req(responder), investigator, 0},
	} {
		before := heard[c.to]
		rx := func() {
			c.at.handleCtrl(c.body)
			w.Sched.Run()
		}
		rx()
		if got := testing.AllocsPerRun(100, rx); got > c.ceiling {
			t.Errorf("core verify receive, %s: %.1f allocs/run, ceiling %.0f", c.name, got, c.ceiling)
		}
		if got := heard[c.to] - before; got != 102 {
			t.Fatalf("%s: %v heard %d frames, want 102 (ctrl %+v)", c.name, c.to, got, w.CtrlStats())
		}
	}
}
