package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addr"
)

func TestVTimeRoundTripKnownValues(t *testing.T) {
	// RFC 3626 recommends 6s for NEIGHB_HOLD_TIME (3*HELLO_INTERVAL of 2s).
	for _, d := range []time.Duration{
		time.Second / 16, time.Second, 2 * time.Second, 6 * time.Second,
		15 * time.Second, 30 * time.Second, 2 * time.Minute,
	} {
		got := DecodeVTime(EncodeVTime(d))
		// Mantissa has 4 bits: relative error must stay under 1/16.
		rel := math.Abs(float64(got-d)) / float64(d)
		if rel > 1.0/16+1e-9 {
			t.Errorf("vtime %v -> %v (rel err %.3f)", d, got, rel)
		}
	}
}

func TestVTimeClampsTinyValues(t *testing.T) {
	if got := DecodeVTime(EncodeVTime(0)); got < time.Second/16 {
		t.Errorf("EncodeVTime(0) decodes to %v, want >= 1/16s", got)
	}
	if got := DecodeVTime(EncodeVTime(time.Nanosecond)); got < time.Second/16 {
		t.Errorf("tiny vtime decodes to %v", got)
	}
}

func TestVTimeMonotone(t *testing.T) {
	prev := time.Duration(0)
	for d := time.Second / 16; d < time.Hour; d += 500 * time.Millisecond {
		got := DecodeVTime(EncodeVTime(d))
		if got < prev {
			t.Fatalf("vtime not monotone at %v: %v < %v", d, got, prev)
		}
		prev = got
	}
}

func TestVTimeQuickRelativeError(t *testing.T) {
	// The 4-bit exponent caps representable vtimes at C*(1+15/16)*2^15 ≈ 66
	// minutes; probe only the representable domain.
	f := func(ms uint32) bool {
		d := time.Duration(ms%3000000+63) * time.Millisecond // 63ms..50min
		got := DecodeVTime(EncodeVTime(d))
		rel := math.Abs(float64(got-d)) / float64(d)
		return rel <= 1.0/16+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkCode(t *testing.T) {
	for _, nt := range []NeighborType{NeighNot, NeighSym, NeighMPR} {
		for _, lt := range []LinkType{LinkUnspec, LinkAsym, LinkSym, LinkLost} {
			code := MakeLinkCode(nt, lt)
			gnt, glt := code.Split()
			if gnt != nt || glt != lt {
				t.Errorf("MakeLinkCode(%d,%d).Split() = (%d,%d)", nt, lt, gnt, glt)
			}
		}
	}
	if s := MakeLinkCode(NeighMPR, LinkSym).String(); s != "MPR/SYM" {
		t.Errorf("String() = %q", s)
	}
}

func TestMessageTypeString(t *testing.T) {
	tests := map[MessageType]string{
		MsgHello: "HELLO", MsgTC: "TC", MsgRecommend: "RECOMMEND", 3: "TYPE(3)", 77: "TYPE(77)",
	}
	for mt, want := range tests {
		if got := mt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", mt, got, want)
		}
	}
}

func sampleHello() *Hello {
	return &Hello{
		HTime: 2 * time.Second,
		Will:  WillDefault,
		Links: []LinkBlock{
			{Code: MakeLinkCode(NeighSym, LinkSym), Neighbors: []addr.Node{addr.NodeAt(2), addr.NodeAt(3)}},
			{Code: MakeLinkCode(NeighMPR, LinkSym), Neighbors: []addr.Node{addr.NodeAt(4)}},
			{Code: MakeLinkCode(NeighNot, LinkAsym), Neighbors: []addr.Node{addr.NodeAt(9)}},
		},
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	got, err := DecodePacket(p.Encode())
	if err != nil {
		t.Fatalf("DecodePacket: %v", err)
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	p := &Packet{Seq: 7, Messages: []Message{{
		VTime: 6 * time.Second, Originator: addr.NodeAt(1), TTL: 1, HopCount: 0, Seq: 42,
		Body: sampleHello(),
	}}}
	got := roundTrip(t, p)
	if got.Seq != 7 || len(got.Messages) != 1 {
		t.Fatalf("packet = %+v", got)
	}
	m := got.Messages[0]
	if m.Type() != MsgHello || m.Originator != addr.NodeAt(1) || m.Seq != 42 || m.TTL != 1 {
		t.Fatalf("header = %+v", m)
	}
	h, ok := m.Body.(*Hello)
	if !ok {
		t.Fatalf("body type %T", m.Body)
	}
	if h.Will != WillDefault || len(h.Links) != 3 {
		t.Fatalf("hello = %+v", h)
	}
	if !reflect.DeepEqual(h.Links, sampleHello().Links) {
		t.Errorf("links = %+v", h.Links)
	}
}

func TestHelloSymNeighbors(t *testing.T) {
	h := sampleHello()
	sym := h.SymNeighbors(nil)
	want := addr.NewSet(addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4))
	if !sym.Equal(want) {
		t.Errorf("SymNeighbors = %v, want %v", sym, want)
	}
	// An address listed in two sym blocks (an attacker's HELLO may do
	// that) appears once, and a reused buffer's old contents do not leak.
	h.Links = append(h.Links, LinkBlock{Code: MakeLinkCode(NeighSym, LinkSym), Neighbors: []addr.Node{addr.NodeAt(3), addr.NodeAt(1)}})
	buf := addr.NewSet(addr.NodeAt(7), addr.NodeAt(8), addr.NodeAt(9), addr.NodeAt(10), addr.NodeAt(11))
	want = addr.NewSet(addr.NodeAt(1), addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4))
	if sym := h.SymNeighbors(buf); !sym.Equal(want) {
		t.Errorf("SymNeighbors(buf) = %v, want %v", sym, want)
	}
}

func TestTCRoundTrip(t *testing.T) {
	p := &Packet{Seq: 1, Messages: []Message{{
		VTime: 15 * time.Second, Originator: addr.NodeAt(5), TTL: 255, HopCount: 3, Seq: 9,
		Body: &TC{ANSN: 321, Advertised: []addr.Node{addr.NodeAt(1), addr.NodeAt(2)}},
	}}}
	m := roundTrip(t, p).Messages[0]
	tc, ok := m.Body.(*TC)
	if !ok {
		t.Fatalf("body type %T", m.Body)
	}
	if tc.ANSN != 321 || len(tc.Advertised) != 2 || tc.Advertised[0] != addr.NodeAt(1) {
		t.Fatalf("tc = %+v", tc)
	}
	if m.HopCount != 3 {
		t.Errorf("hopcount = %d", m.HopCount)
	}
}

func TestEmptyTC(t *testing.T) {
	p := &Packet{Messages: []Message{{
		VTime: 15 * time.Second, Originator: addr.NodeAt(5), Body: &TC{ANSN: 1},
	}}}
	tc, ok := roundTrip(t, p).Messages[0].Body.(*TC)
	if !ok || len(tc.Advertised) != 0 {
		t.Fatalf("empty TC mishandled: %+v", tc)
	}
}

// rawPacket hand-builds a one-message packet of type mt with the given
// body, independently of the encoder.
func rawPacket(mt MessageType, body []byte) []byte {
	size := msgHeaderLen + len(body)
	b := make([]byte, pktHeaderLen+size)
	binary.BigEndian.PutUint16(b, uint16(len(b)))
	m := b[pktHeaderLen:]
	m[0] = byte(mt)
	m[1] = EncodeVTime(15 * time.Second)
	binary.BigEndian.PutUint16(m[2:], uint16(size))
	binary.BigEndian.PutUint32(m[4:], uint32(addr.NodeAt(3)))
	m[8], m[10], m[11] = 255, 0, 7
	copy(m[msgHeaderLen:], body)
	return b
}

// assertRawRoundTrip checks that a type-mt message decodes as an opaque
// RawBody and re-encodes to the input bytes, as a node must relay it
// unprocessed (RFC 3626 §3.4).
func assertRawRoundTrip(t *testing.T, mt MessageType, body []byte) {
	t.Helper()
	in := rawPacket(mt, body)
	p, err := DecodePacket(in)
	if err != nil {
		t.Fatalf("type %d body %x: %v", mt, body, err)
	}
	raw, ok := p.Messages[0].Body.(*RawBody)
	if !ok || raw.Type != mt || !reflect.DeepEqual(raw.Data, body) {
		t.Fatalf("type %d decoded as %+v", mt, p.Messages[0].Body)
	}
	if re := p.Encode(); !reflect.DeepEqual(re, in) {
		t.Fatalf("type %d re-encodes differently:\n got %x\nwant %x", mt, re, in)
	}
}

// TestMIDRoundTrip: MID (type 3) is not decoded; its body, ragged or
// not, is carried byte for byte.
func TestMIDRoundTrip(t *testing.T) {
	assertRawRoundTrip(t, 3, []byte{10, 0, 0, 100, 10, 0, 0, 101}) // two interfaces
	assertRawRoundTrip(t, 3, []byte{10, 0, 0, 100, 1, 2})          // ragged
	assertRawRoundTrip(t, 3, nil)
}

// TestHNARoundTrip: HNA (type 4) is carried like MID.
func TestHNARoundTrip(t *testing.T) {
	assertRawRoundTrip(t, 4, []byte{192, 168, 0, 0, 255, 255, 0, 0})             // one network
	assertRawRoundTrip(t, 4, []byte{192, 168, 0, 0, 255, 255, 0, 0, 1, 2, 3, 4}) // ragged
}

func TestUnknownTypeRoundTrip(t *testing.T) {
	p := &Packet{Messages: []Message{{
		VTime: time.Second, Originator: addr.NodeAt(1),
		Body: &RawBody{Type: 200, Data: []byte{1, 2, 3, 4}},
	}}}
	m := roundTrip(t, p).Messages[0]
	raw, ok := m.Body.(*RawBody)
	if !ok || raw.Type != 200 || !reflect.DeepEqual(raw.Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("raw = %+v", m.Body)
	}
}

func TestMultiMessagePacket(t *testing.T) {
	p := &Packet{Seq: 99, Messages: []Message{
		{VTime: 6 * time.Second, Originator: addr.NodeAt(1), TTL: 1, Seq: 1, Body: sampleHello()},
		{VTime: 15 * time.Second, Originator: addr.NodeAt(1), TTL: 255, Seq: 2,
			Body: &TC{ANSN: 5, Advertised: []addr.Node{addr.NodeAt(7)}}},
		{VTime: 15 * time.Second, Originator: addr.NodeAt(1), TTL: 255, Seq: 3,
			Body: &RawBody{Type: 3, Data: []byte{10, 0, 0, 50}}},
	}}
	got := roundTrip(t, p)
	if len(got.Messages) != 3 {
		t.Fatalf("messages = %d, want 3", len(got.Messages))
	}
	types := []MessageType{MsgHello, MsgTC, 3}
	for i, want := range types {
		if got.Messages[i].Type() != want {
			t.Errorf("message %d type = %v, want %v", i, got.Messages[i].Type(), want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := (&Packet{Messages: []Message{{
		VTime: time.Second, Originator: addr.NodeAt(1), Body: &TC{ANSN: 1},
	}}}).Encode()

	tests := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", []byte{0, 1}, ErrTruncated},
		{"length mismatch", append(append([]byte{}, valid...), 0), ErrBadLength},
		{"truncated message", valid[:len(valid)-2], ErrBadLength},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := tt.b
			if tt.name == "length mismatch" {
				// keep the stated length but add a trailing byte
			} else if tt.name == "truncated message" {
				// fix the packet length field to match the shorter buffer,
				// so the error comes from the message layer
				b = append([]byte{}, b...)
				b[0] = byte(len(b) >> 8)
				b[1] = byte(len(b))
			}
			_, err := DecodePacket(b)
			if err == nil {
				t.Fatal("expected error")
			}
			if !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDecodeBadHelloLinkBlock(t *testing.T) {
	// Hand-build a HELLO whose link block size lies.
	h := &Hello{HTime: 2 * time.Second, Links: []LinkBlock{
		{Code: MakeLinkCode(NeighSym, LinkSym), Neighbors: []addr.Node{addr.NodeAt(2)}},
	}}
	pkt := (&Packet{Messages: []Message{{VTime: time.Second, Originator: addr.NodeAt(1), Body: h}}}).Encode()
	// Link block size lives at packet(4) + msg header(12) + hello fixed(4) + 2.
	pkt[4+12+4+2] = 0xff
	pkt[4+12+4+3] = 0xff
	if _, err := DecodePacket(pkt); !errors.Is(err, ErrBadLength) {
		t.Errorf("error = %v, want ErrBadLength", err)
	}
}

func TestDecodeBadBodyLengths(t *testing.T) {
	mk := func(mt MessageType, bodyLen int) []byte {
		size := 12 + bodyLen
		b := make([]byte, 4+size)
		b[0] = byte(len(b) >> 8)
		b[1] = byte(len(b))
		b[4] = byte(mt)
		b[4+2] = byte(size >> 8)
		b[4+3] = byte(size)
		return b
	}
	for _, tt := range []struct {
		name string
		b    []byte
	}{
		{"tc too short", mk(MsgTC, 2)},
		{"tc ragged", mk(MsgTC, 7)},
		{"hello too short", mk(MsgHello, 2)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodePacket(tt.b); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// randomPacket builds a structurally valid random packet for property tests.
func randomPacket(rng *rand.Rand) *Packet {
	p := &Packet{Seq: uint16(rng.Intn(1 << 16))}
	nmsg := 1 + rng.Intn(4)
	for i := 0; i < nmsg; i++ {
		m := Message{
			VTime:      time.Duration(1+rng.Intn(120)) * time.Second,
			Originator: addr.NodeAt(1 + rng.Intn(250)),
			TTL:        uint8(rng.Intn(256)),
			HopCount:   uint8(rng.Intn(64)),
			Seq:        uint16(rng.Intn(1 << 16)),
		}
		switch rng.Intn(4) {
		case 0:
			h := &Hello{HTime: time.Duration(1+rng.Intn(10)) * time.Second, Will: WillDefault}
			for j := 0; j < rng.Intn(3); j++ {
				lb := LinkBlock{Code: MakeLinkCode(NeighborType(rng.Intn(3)), LinkType(rng.Intn(4)))}
				for k := 0; k < 1+rng.Intn(5); k++ {
					lb.Neighbors = append(lb.Neighbors, addr.NodeAt(1+rng.Intn(250)))
				}
				h.Links = append(h.Links, lb)
			}
			m.Body = h
		case 1:
			tc := &TC{ANSN: uint16(rng.Intn(1 << 16))}
			for j := 0; j < rng.Intn(6); j++ {
				tc.Advertised = append(tc.Advertised, addr.NodeAt(1+rng.Intn(250)))
			}
			m.Body = tc
		default:
			// MID, HNA or an unregistered type: carried opaquely.
			raw := &RawBody{Type: []MessageType{3, 4, 200}[rng.Intn(3)], Data: make([]byte, rng.Intn(24))}
			rng.Read(raw.Data)
			m.Body = raw
		}
		p.Messages = append(p.Messages, m)
	}
	return p
}

func TestRandomPacketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		p := randomPacket(rng)
		enc := p.Encode()
		dec, err := DecodePacket(enc)
		if err != nil {
			t.Fatalf("iteration %d: decode: %v", i, err)
		}
		if dec.Seq != p.Seq || len(dec.Messages) != len(p.Messages) {
			t.Fatalf("iteration %d: structure mismatch", i)
		}
		// Re-encoding the decoded packet must be byte-identical: the codec
		// is canonical.
		if re := dec.Encode(); !reflect.DeepEqual(re, enc) {
			t.Fatalf("iteration %d: re-encode differs", i)
		}
		for j := range p.Messages {
			a, b := p.Messages[j], dec.Messages[j]
			if a.Originator != b.Originator || a.Seq != b.Seq || a.TTL != b.TTL ||
				a.HopCount != b.HopCount || a.Type() != b.Type() {
				t.Fatalf("iteration %d msg %d: header mismatch", i, j)
			}
		}
	}
}

func TestDecodeDoesNotPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		_, _ = DecodePacket(b) // must not panic
	}
	// Mutated valid packets must not panic either.
	valid := (&Packet{Messages: []Message{{
		VTime: time.Second, Originator: addr.NodeAt(1), Body: sampleHello(),
	}}}).Encode()
	for i := 0; i < 2000; i++ {
		b := append([]byte{}, valid...)
		b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		_, _ = DecodePacket(b)
	}
}

// TestAppendToMatchesEncode pins the buffer-reuse encode path: AppendTo
// onto a dirty retained buffer must produce exactly the bytes Encode
// allocates fresh, and EncodedSize must predict the length.
func TestAppendToMatchesEncode(t *testing.T) {
	pkts := []*Packet{
		{Seq: 1, Messages: []Message{{
			VTime: 6 * time.Second, Originator: addr.NodeAt(1), TTL: 1, Seq: 9,
			Body: &Hello{HTime: 2 * time.Second, Will: WillDefault, Links: []LinkBlock{
				{Code: MakeLinkCode(NeighSym, LinkSym), Neighbors: []addr.Node{addr.NodeAt(2), addr.NodeAt(3)}},
				{Code: MakeLinkCode(NeighNot, LinkAsym), Neighbors: []addr.Node{addr.NodeAt(4)}},
			}},
		}}},
		{Seq: 2, Messages: []Message{{
			VTime: 15 * time.Second, Originator: addr.NodeAt(5), TTL: 64, HopCount: 2, Seq: 77,
			Body: &TC{ANSN: 12, Advertised: []addr.Node{addr.NodeAt(1), addr.NodeAt(9)}},
		}, {
			VTime: 15 * time.Second, Originator: addr.NodeAt(5), TTL: 64, Seq: 78,
			Body: &RawBody{Type: 3, Data: []byte{10, 0, 0, 40}},
		}}},
	}
	buf := []byte{0xde, 0xad, 0xbe, 0xef} // dirty scratch, reused across packets
	for i, p := range pkts {
		want := p.Encode()
		if got := p.EncodedSize(); got != len(want) {
			t.Fatalf("packet %d: EncodedSize %d, Encode produced %d bytes", i, got, len(want))
		}
		buf = p.AppendTo(buf[:0])
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("packet %d: AppendTo != Encode\n got %x\nwant %x", i, buf, want)
		}
		if _, err := DecodePacket(buf); err != nil {
			t.Fatalf("packet %d: AppendTo output does not decode: %v", i, err)
		}
	}
	// Appending after existing content preserves the prefix.
	prefix := []byte{0x01}
	out := pkts[0].AppendTo(prefix)
	if out[0] != 0x01 || !reflect.DeepEqual(out[1:], pkts[0].Encode()) {
		t.Fatal("AppendTo clobbered the existing prefix")
	}
}

func TestRecommendRoundTrip(t *testing.T) {
	p := &Packet{Seq: 3, Messages: []Message{{
		VTime: 60 * time.Second, Originator: addr.NodeAt(7), TTL: 16, Seq: 11,
		Body: &Recommend{Entries: []RecommendEntry{
			{About: addr.NodeAt(1), Trust: QuantizeTrust(0.4)},
			{About: addr.NodeAt(2), Trust: QuantizeTrust(0)},
			{About: addr.NodeAt(9), Trust: QuantizeTrust(1)},
		}},
	}}}
	m := roundTrip(t, p).Messages[0]
	if m.Type() != MsgRecommend {
		t.Fatalf("type = %v", m.Type())
	}
	r, ok := m.Body.(*Recommend)
	if !ok {
		t.Fatalf("body type %T", m.Body)
	}
	if !reflect.DeepEqual(r.Entries, p.Messages[0].Body.(*Recommend).Entries) {
		t.Errorf("entries = %+v", r.Entries)
	}
}

func TestRecommendRejectsRaggedBody(t *testing.T) {
	p := &Packet{Messages: []Message{{
		VTime: time.Second, Originator: addr.NodeAt(1),
		Body: &Recommend{Entries: []RecommendEntry{{About: addr.NodeAt(2), Trust: 5}}},
	}}}
	raw := p.Encode()
	// Truncate one byte off the entry and fix up the length fields: the
	// decoder must reject the ragged body rather than mis-slice it.
	raw = raw[:len(raw)-1]
	binary.BigEndian.PutUint16(raw, uint16(len(raw)))
	binary.BigEndian.PutUint16(raw[4+2:], uint16(len(raw)-4))
	if _, err := DecodePacket(raw); err == nil {
		t.Fatal("ragged recommend body decoded without error")
	}
}

func TestQuantizeTrust(t *testing.T) {
	cases := []struct {
		in   float64
		want uint16
	}{
		{-0.5, 0}, {0, 0}, {1, 65535}, {1.5, 65535}, {0.5, 32768},
	}
	for _, c := range cases {
		if got := QuantizeTrust(c.in); got != c.want {
			t.Errorf("QuantizeTrust(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// Round-tripping any quantized value is the identity on the grid.
	for _, q := range []uint16{0, 1, 1000, 32768, 65534, 65535} {
		e := RecommendEntry{Trust: q}
		if got := QuantizeTrust(e.TrustValue()); got != q {
			t.Errorf("re-quantizing %d gave %d", q, got)
		}
	}
}
