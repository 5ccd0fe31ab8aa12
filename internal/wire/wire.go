// Package wire implements the RFC 3626 (OLSR) binary packet and message
// formats: packet framing, the common message header, and the HELLO and
// TC message bodies, plus the mantissa/exponent validity-time encoding.
// Every other type, MID and HNA included, decodes as a RawBody that
// re-encodes byte for byte, so a node can flood it unprocessed
// (RFC 3626 §3.4).
//
// The codec is strict on decode (truncated or inconsistent length fields
// yield errors rather than partial results) because the intrusion detector
// treats malformed control traffic as a loggable event.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/addr"
)

// MessageType identifies an OLSR message body (RFC 3626 §18.4).
type MessageType uint8

// Message types registered by RFC 3626 that this codec decodes.
const (
	MsgHello MessageType = 1
	MsgTC    MessageType = 2
)

// MsgRecommend is this testbed's extension type for the reputation
// plane's trust-vector gossip (DESIGN.md §9). The value is outside RFC
// 3626's registered range, so an unextended OLSR node treats it as an
// unknown type and floods it unprocessed (§3.4) — exactly the transparent
// carriage a recommendation overlay needs.
const MsgRecommend MessageType = 10

// String implements fmt.Stringer.
func (t MessageType) String() string {
	switch t {
	case MsgHello:
		return "HELLO"
	case MsgTC:
		return "TC"
	case MsgRecommend:
		return "RECOMMEND"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Willingness expresses a node's willingness to carry traffic for others
// (RFC 3626 §18.8). MPRs are selected among the most-willing neighbors; an
// attacker manipulating this field biases MPR selection (§II-B of the
// paper).
type Willingness uint8

// Willingness constants from RFC 3626.
const (
	WillNever   Willingness = 0
	WillLow     Willingness = 1
	WillDefault Willingness = 3
	WillHigh    Willingness = 6
	WillAlways  Willingness = 7
)

// LinkType describes the state of a link from the sender's interface
// (RFC 3626 §6.2).
type LinkType uint8

// Link types from RFC 3626.
const (
	LinkUnspec LinkType = 0
	LinkAsym   LinkType = 1
	LinkSym    LinkType = 2
	LinkLost   LinkType = 3
)

// NeighborType describes the sender's relationship with the listed
// neighbors (RFC 3626 §6.2).
type NeighborType uint8

// Neighbor types from RFC 3626.
const (
	NeighNot NeighborType = 0
	NeighSym NeighborType = 1
	NeighMPR NeighborType = 2
)

// LinkCode packs a LinkType and NeighborType into the single octet carried
// in HELLO link blocks.
type LinkCode uint8

// MakeLinkCode combines a neighbor type and link type.
func MakeLinkCode(nt NeighborType, lt LinkType) LinkCode {
	return LinkCode(uint8(nt)<<2 | uint8(lt)&0x03)
}

// Split returns the neighbor and link type components.
func (c LinkCode) Split() (NeighborType, LinkType) {
	return NeighborType(c >> 2 & 0x03), LinkType(c & 0x03)
}

// String implements fmt.Stringer.
func (c LinkCode) String() string {
	nt, lt := c.Split()
	names := [4]string{"UNSPEC", "ASYM", "SYM", "LOST"}
	nnames := [4]string{"NOT", "SYM", "MPR", "?"}
	return nnames[nt] + "/" + names[lt]
}

// SeqNewer implements the RFC 3626 §19 wraparound comparison over the
// 16-bit sequence numbers this codec carries: a is newer than b when it
// is ahead by less than half the space. Shared by the OLSR duplicate
// logic and the reputation plane's gossip dedup so the two cannot drift.
func SeqNewer(a, b uint16) bool {
	return (a > b && a-b <= 32768) || (a < b && b-a > 32768)
}

// Codec errors.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrBadLength = errors.New("wire: inconsistent length field")
	ErrBadBody   = errors.New("wire: malformed message body")
)

// vtimeC is the RFC 3626 scaling constant C = 1/16 second.
const vtimeC = time.Second / 16

// EncodeVTime converts a duration to the RFC 3626 §18.3 mantissa/exponent
// byte: t = C*(1+a/16)*2^b with a, b four-bit fields.
func EncodeVTime(d time.Duration) byte {
	if d < vtimeC {
		d = vtimeC
	}
	ratio := float64(d) / float64(vtimeC)
	b := 0
	for ratio >= 2 && b < 15 {
		ratio /= 2
		b++
	}
	a := int(16*(ratio-1) + 0.5)
	if a >= 16 {
		a = 0
		b++
		if b > 15 {
			a, b = 15, 15
		}
	}
	return byte(a<<4 | b)
}

// DecodeVTime inverts EncodeVTime.
func DecodeVTime(v byte) time.Duration {
	a := int(v >> 4)
	b := int(v & 0x0f)
	return time.Duration(float64(vtimeC) * (1 + float64(a)/16) * float64(uint64(1)<<b))
}

// Body is an OLSR message body.
type Body interface {
	// MsgType returns the message type carried in the common header.
	MsgType() MessageType
	encodedSize() int
	encodeTo(b []byte)
}

// LinkBlock is one HELLO link-message block: a link code and the neighbor
// interface addresses it applies to.
type LinkBlock struct {
	Code      LinkCode
	Neighbors []addr.Node
}

// Hello is the HELLO message body (RFC 3626 §6.1). It advertises the
// sender's links and neighbors — exactly the information a link-spoofing
// attacker falsifies.
type Hello struct {
	HTime time.Duration // HELLO emission interval advertised to neighbors
	Will  Willingness
	Links []LinkBlock
}

var _ Body = (*Hello)(nil)

// MsgType implements Body.
func (*Hello) MsgType() MessageType { return MsgHello }

func (h *Hello) encodedSize() int {
	n := 4 // reserved(2) + htime(1) + willingness(1)
	for _, lb := range h.Links {
		n += 4 + 4*len(lb.Neighbors)
	}
	return n
}

func (h *Hello) encodeTo(b []byte) {
	b[0], b[1] = 0, 0
	b[2] = EncodeVTime(h.HTime)
	b[3] = byte(h.Will)
	off := 4
	for _, lb := range h.Links {
		size := 4 + 4*len(lb.Neighbors)
		b[off] = byte(lb.Code)
		b[off+1] = 0
		binary.BigEndian.PutUint16(b[off+2:], uint16(size)) //nolint:gosec // bounded by packet size
		off += 4
		for _, n := range lb.Neighbors {
			binary.BigEndian.PutUint32(b[off:], uint32(n))
			off += 4
		}
	}
}

// SymNeighbors returns every address advertised with a symmetric or MPR
// neighbor type — the advertised symmetric 1-hop neighborhood NS'(I) that
// the detector compares against reality. The set is built in dst's
// storage (nil allocates), so a caller can reuse one buffer across HELLOs.
func (h *Hello) SymNeighbors(dst addr.Set) addr.Set {
	dst = dst[:0]
	for _, lb := range h.Links {
		nt, lt := lb.Code.Split()
		if nt == NeighSym || nt == NeighMPR || lt == LinkSym {
			dst = append(dst, lb.Neighbors...)
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// TC is the Topology Control message body (RFC 3626 §9.1): the sender (an
// MPR) declares its advertised neighbor set (its MPR selectors).
type TC struct {
	ANSN       uint16 // advertised neighbor sequence number
	Advertised []addr.Node
}

var _ Body = (*TC)(nil)

// MsgType implements Body.
func (*TC) MsgType() MessageType { return MsgTC }

func (t *TC) encodedSize() int { return 4 + 4*len(t.Advertised) }

func (t *TC) encodeTo(b []byte) {
	binary.BigEndian.PutUint16(b, t.ANSN)
	b[2], b[3] = 0, 0
	off := 4
	for _, n := range t.Advertised {
		binary.BigEndian.PutUint32(b[off:], uint32(n))
		off += 4
	}
}

// RecommendEntry is one subject of a gossiped trust vector: the node the
// recommendation is about and the recommender's trust in it, quantized to
// 16 bits (QuantizeTrust). Quantization, not float transport, keeps the
// codec byte-exact: the same vector always encodes to the same bytes on
// every platform, which the golden corpus relies on.
type RecommendEntry struct {
	About addr.Node
	Trust uint16
}

// trustQuantSteps is the quantization resolution of RecommendEntry.Trust:
// the [0,1] trust range maps onto 0..65535.
const trustQuantSteps = 65535

// QuantizeTrust maps a trust value in [0,1] onto the 16-bit wire
// representation (values outside the range are clamped).
func QuantizeTrust(v float64) uint16 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return trustQuantSteps
	}
	return uint16(v*trustQuantSteps + 0.5)
}

// TrustValue returns the entry's trust as a float in [0,1].
func (e RecommendEntry) TrustValue() float64 {
	return float64(e.Trust) / trustQuantSteps
}

// Recommend is the reputation plane's trust-vector body (DESIGN.md §9):
// the originator's direct trust in third parties, gossiped so receivers
// can bootstrap trust in strangers through Eq. 6/7. Entries are sorted by
// subject address on encode-side construction (reputation.Ledger); the
// codec itself preserves order.
type Recommend struct {
	Entries []RecommendEntry
}

var _ Body = (*Recommend)(nil)

// MsgType implements Body.
func (*Recommend) MsgType() MessageType { return MsgRecommend }

// recommendEntryLen is the wire size of one entry: address(4) + trust(2).
const recommendEntryLen = 6

func (r *Recommend) encodedSize() int { return recommendEntryLen * len(r.Entries) }

func (r *Recommend) encodeTo(b []byte) {
	off := 0
	for _, e := range r.Entries {
		binary.BigEndian.PutUint32(b[off:], uint32(e.About))
		binary.BigEndian.PutUint16(b[off+4:], e.Trust)
		off += recommendEntryLen
	}
}

// RawBody carries an unknown message type opaquely, as RFC 3626 §3.4
// requires unknown messages to still be forwarded.
type RawBody struct {
	Type MessageType
	Data []byte
}

var _ Body = (*RawBody)(nil)

// MsgType implements Body.
func (r *RawBody) MsgType() MessageType { return r.Type }

func (r *RawBody) encodedSize() int { return len(r.Data) }

func (r *RawBody) encodeTo(b []byte) { copy(b, r.Data) }

// msgHeaderLen is the fixed common message header size (RFC 3626 §3.3).
const msgHeaderLen = 12

// Message is one OLSR message: the common header plus a typed body.
type Message struct {
	VTime      time.Duration // validity time of the carried information
	Originator addr.Node
	TTL        uint8
	HopCount   uint8
	Seq        uint16 // message sequence number (per originator)
	Body       Body
}

// Type returns the message type from the body.
func (m *Message) Type() MessageType { return m.Body.MsgType() }

func (m *Message) encodedSize() int { return msgHeaderLen + m.Body.encodedSize() }

func (m *Message) encodeTo(b []byte) {
	b[0] = byte(m.Body.MsgType())
	b[1] = EncodeVTime(m.VTime)
	binary.BigEndian.PutUint16(b[2:], uint16(m.encodedSize())) //nolint:gosec // bounded
	binary.BigEndian.PutUint32(b[4:], uint32(m.Originator))
	b[8] = m.TTL
	b[9] = m.HopCount
	binary.BigEndian.PutUint16(b[10:], m.Seq)
	m.Body.encodeTo(b[msgHeaderLen:])
}

// pktHeaderLen is the fixed packet header size (RFC 3626 §3.3).
const pktHeaderLen = 4

// Packet is one OLSR packet: a sequence number and one or more messages.
type Packet struct {
	Seq      uint16
	Messages []Message
}

// EncodedSize returns the exact byte length Encode produces.
func (p *Packet) EncodedSize() int {
	size := pktHeaderLen
	for i := range p.Messages {
		size += p.Messages[i].encodedSize()
	}
	return size
}

// Encode serializes the packet in RFC 3626 wire format.
func (p *Packet) Encode() []byte {
	return p.AppendTo(nil)
}

// AppendTo serializes the packet onto dst and returns the extended slice.
// Emission hot paths pass a retained buffer (dst[:0]) so steady-state
// encoding allocates nothing. Every byte of the encoding is written, so
// stale buffer contents cannot leak into the output.
//
//repro:allocfree
func (p *Packet) AppendTo(dst []byte) []byte {
	size := p.EncodedSize()
	start := len(dst)
	dst = slices.Grow(dst, size)[:start+size]
	b := dst[start:]
	binary.BigEndian.PutUint16(b, uint16(size)) //nolint:gosec // bounded by caller
	binary.BigEndian.PutUint16(b[2:], p.Seq)
	off := pktHeaderLen
	for i := range p.Messages {
		p.Messages[i].encodeTo(b[off:])
		off += p.Messages[i].encodedSize()
	}
	return dst
}

// DecodePacket parses an RFC 3626 packet into fresh storage. It returns
// an error for any truncation or length inconsistency.
func DecodePacket(b []byte) (*Packet, error) { return new(Decoder).Decode(b) }
