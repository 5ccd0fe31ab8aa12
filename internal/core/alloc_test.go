package core

import (
	"testing"
	"time"

	"repro/internal/addr"
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
