package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/addr"
)

// addrOf reads one big-endian address.
func addrOf(b []byte) addr.Node { return addr.Node(binary.BigEndian.Uint32(b)) }

// Decoder is the OLSR packet decoder. It decodes into storage it
// retains and reuses across calls, so receive hot paths — every station
// decodes every overheard control packet — allocate nothing once warm.
// A decoded packet (and everything reachable from it: messages, bodies,
// neighbor lists) is valid only until the next Decode call on the same
// Decoder; callers that keep state must copy out, exactly as they must
// for the radio payload buffers. DecodePacket decodes through a fresh
// Decoder for callers that keep the result.
type Decoder struct {
	pkt Packet

	// Per-type body pools. The i-th body of a type within one packet
	// reuses pool slot i, with the slot's slice storage (link blocks,
	// neighbor lists, entries) truncated and refilled in place.
	hellos         []*Hello
	tcs            []*TC
	recs           []*Recommend
	raws           []*RawBody
	nh, nt, nr, nw int
}

// Decode parses an RFC 3626 packet into the decoder's reused storage.
func (d *Decoder) Decode(b []byte) (*Packet, error) {
	if len(b) < pktHeaderLen {
		return nil, fmt.Errorf("packet header: %w", ErrTruncated)
	}
	length := int(binary.BigEndian.Uint16(b))
	if length != len(b) {
		return nil, fmt.Errorf("packet length %d but %d bytes: %w", length, len(b), ErrBadLength)
	}
	d.nh, d.nt, d.nr, d.nw = 0, 0, 0, 0
	d.pkt.Seq = binary.BigEndian.Uint16(b[2:])
	d.pkt.Messages = d.pkt.Messages[:0]
	off := pktHeaderLen
	for off < len(b) {
		m, n, err := d.decodeMessage(b[off:])
		if err != nil {
			return nil, err
		}
		d.pkt.Messages = append(d.pkt.Messages, m)
		off += n
	}
	return &d.pkt, nil
}

func (d *Decoder) decodeMessage(b []byte) (Message, int, error) {
	if len(b) < msgHeaderLen {
		return Message{}, 0, fmt.Errorf("message header: %w", ErrTruncated)
	}
	size := int(binary.BigEndian.Uint16(b[2:]))
	if size < msgHeaderLen || size > len(b) {
		return Message{}, 0, fmt.Errorf("message size %d with %d available: %w", size, len(b), ErrBadLength)
	}
	m := Message{
		VTime:      DecodeVTime(b[1]),
		Originator: addrOf(b[4:]),
		TTL:        b[8],
		HopCount:   b[9],
		Seq:        binary.BigEndian.Uint16(b[10:]),
	}
	body := b[msgHeaderLen:size]
	var err error
	switch MessageType(b[0]) {
	case MsgHello:
		m.Body, err = d.decodeHello(body)
	case MsgTC:
		m.Body, err = d.decodeTC(body)
	case MsgRecommend:
		m.Body, err = d.decodeRecommend(body)
	default:
		raw := growPool(&d.raws, &d.nw)
		raw.Type = MessageType(b[0])
		raw.Data = append(raw.Data[:0], body...)
		m.Body = raw
	}
	if err != nil {
		return Message{}, 0, err
	}
	return m, size, nil
}

// growPool returns pool slot *n (allocating it on first use) and
// advances the cursor.
func growPool[T any](pool *[]*T, n *int) *T {
	if *n == len(*pool) {
		*pool = append(*pool, new(T))
	}
	v := (*pool)[*n]
	*n++
	return v
}

func (d *Decoder) decodeHello(b []byte) (*Hello, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("hello header: %w", ErrTruncated)
	}
	h := growPool(&d.hellos, &d.nh)
	h.HTime = DecodeVTime(b[2])
	h.Will = Willingness(b[3])
	h.Links = h.Links[:0]
	off := 4
	for off < len(b) {
		if len(b)-off < 4 {
			return nil, fmt.Errorf("hello link block header: %w", ErrTruncated)
		}
		code := LinkCode(b[off])
		size := int(binary.BigEndian.Uint16(b[off+2:]))
		if size < 4 || (size-4)%4 != 0 || off+size > len(b) {
			return nil, fmt.Errorf("hello link block size %d: %w", size, ErrBadLength)
		}
		// Reclaim the neighbor storage a previous decode left in the
		// slot this block is about to occupy.
		var neigh []addr.Node
		if cap(h.Links) > len(h.Links) {
			neigh = h.Links[:len(h.Links)+1][len(h.Links)].Neighbors[:0]
		}
		for p := off + 4; p < off+size; p += 4 {
			neigh = append(neigh, addrOf(b[p:]))
		}
		h.Links = append(h.Links, LinkBlock{Code: code, Neighbors: neigh})
		off += size
	}
	return h, nil
}

func (d *Decoder) decodeTC(b []byte) (*TC, error) {
	if len(b) < 4 || (len(b)-4)%4 != 0 {
		return nil, fmt.Errorf("tc body length %d: %w", len(b), ErrBadBody)
	}
	t := growPool(&d.tcs, &d.nt)
	t.ANSN = binary.BigEndian.Uint16(b)
	t.Advertised = t.Advertised[:0]
	for p := 4; p < len(b); p += 4 {
		t.Advertised = append(t.Advertised, addrOf(b[p:]))
	}
	return t, nil
}

func (d *Decoder) decodeRecommend(b []byte) (*Recommend, error) {
	if len(b)%recommendEntryLen != 0 {
		return nil, fmt.Errorf("recommend body length %d: %w", len(b), ErrBadBody)
	}
	r := growPool(&d.recs, &d.nr)
	r.Entries = r.Entries[:0]
	for p := 0; p < len(b); p += recommendEntryLen {
		r.Entries = append(r.Entries, RecommendEntry{
			About: addrOf(b[p:]),
			Trust: binary.BigEndian.Uint16(b[p+4:]),
		})
	}
	return r, nil
}
