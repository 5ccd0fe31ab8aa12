package wire

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/addr"
)

// mixedPacket carries every body type — a HELLO with several link
// blocks, TC, Recommend, and MID, HNA and an unregistered type carried
// raw — so a Decoder that has decoded it holds pooled storage of every
// shape.
var mixedPacket = (&Packet{Seq: 9, Messages: []Message{{
	VTime: 6 * time.Second, Originator: addr.NodeAt(1), TTL: 1, Seq: 1,
	Body: &Hello{HTime: 2 * time.Second, Will: WillDefault, Links: []LinkBlock{
		{Code: MakeLinkCode(NeighSym, LinkSym), Neighbors: []addr.Node{addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4)}},
		{Code: MakeLinkCode(NeighMPR, LinkSym), Neighbors: []addr.Node{addr.NodeAt(5)}},
		{Code: MakeLinkCode(NeighNot, LinkAsym)},
		{Code: MakeLinkCode(NeighNot, LinkLost), Neighbors: []addr.Node{addr.NodeAt(6), addr.NodeAt(7)}},
	}},
}, {
	VTime: 15 * time.Second, Originator: addr.NodeAt(3), TTL: 255, Seq: 2,
	Body: &TC{ANSN: 7, Advertised: []addr.Node{addr.NodeAt(1), addr.NodeAt(2)}},
}, {
	VTime: 15 * time.Second, Originator: addr.NodeAt(3), TTL: 255, Seq: 3,
	Body: &RawBody{Type: 3, Data: []byte{10, 0, 0, 200, 10, 0, 0, 201}}, // MID
}, {
	VTime: 15 * time.Second, Originator: addr.NodeAt(3), TTL: 255, Seq: 4,
	Body: &RawBody{Type: 4, Data: []byte{10, 0, 0, 0, 255, 0, 0, 0}}, // HNA
}, {
	VTime: 15 * time.Second, Originator: addr.NodeAt(4), TTL: 255, Seq: 5,
	Body: &Recommend{Entries: []RecommendEntry{{About: addr.NodeAt(1), Trust: 40000}, {About: addr.NodeAt(9), Trust: 7}}},
}, {
	VTime: 15 * time.Second, Originator: addr.NodeAt(4), TTL: 64, Seq: 6,
	Body: &RawBody{Type: 200, Data: []byte{1, 2, 3, 4, 5}},
}}}).Encode()

// FuzzDecodePacket: the decoder must never panic and must stay
// consistent — anything it accepts must re-encode and re-decode to the
// same bytes, and a Decoder reused across packets of different shapes
// must decode each exactly as a fresh one does. The decoder is attack
// surface: §II-B's active-forge attacks deliver adversarial packets to
// every node.
func FuzzDecodePacket(f *testing.F) {
	seeds := [][]byte{
		{},
		{0, 0},
		{0, 4, 0, 1},
		mixedPacket,
		(&Packet{Seq: 1, Messages: []Message{{
			VTime: 2 * time.Second, Originator: addr.NodeAt(1), TTL: 1, Seq: 1,
			Body: &Hello{HTime: 2 * time.Second, Will: WillDefault, Links: []LinkBlock{{
				Code:      MakeLinkCode(NeighSym, LinkSym),
				Neighbors: []addr.Node{addr.NodeAt(2)},
			}}},
		}}}).Encode(),
		(&Packet{Seq: 2, Messages: []Message{{
			VTime: 15 * time.Second, Originator: addr.NodeAt(3), TTL: 255, Seq: 9,
			Body: &TC{ANSN: 7, Advertised: []addr.Node{addr.NodeAt(1), addr.NodeAt(2)}},
		}}}).Encode(),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodePacket(data); err == nil {
			re := p.Encode()
			q, err := DecodePacket(re)
			if err != nil {
				t.Fatalf("accepted packet does not re-decode: %v", err)
			}
			if got := q.Encode(); !bytes.Equal(got, re) {
				t.Fatalf("re-encode is not a fixed point:\n%x\n%x", got, re)
			}
		}
		// One Decoder alternates between the input and the mixed packet;
		// every pass must match a fresh decode, error for error and byte
		// for byte, whatever shapes (or half-finished failed decode) the
		// previous pass left in its pools.
		var dec Decoder
		for i, in := range [][]byte{data, mixedPacket, data, mixedPacket} {
			want, werr := DecodePacket(in)
			got, gerr := dec.Decode(in)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("pass %d: reused Decoder error %v, fresh decode error %v", i, gerr, werr)
			}
			if werr == nil && !bytes.Equal(got.Encode(), want.Encode()) {
				t.Fatalf("pass %d: reused Decoder re-encodes differently:\n%x\n%x", i, got.Encode(), want.Encode())
			}
		}
	})
}
