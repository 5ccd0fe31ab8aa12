package core

// The control-plane envelope's wire codec (DESIGN.md §10): a flat,
// length-prefixed, deterministic layout — big-endian like the OLSR wire
// codec — written with append-style helpers so one payload costs one
// allocation. It is the only encoding of ctrlMsg. Every envelope starts
// with the format tag ctrlBinaryMagic, and the decoder rejects a frame
// without it, like any other malformed frame. The decoder is canonical:
// it accepts exactly the bytes the encoder writes, so every envelope it
// accepts re-encodes to the same bytes.

import (
	"encoding/binary"
	"errors"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/detect"
)

// ctrlBinaryMagic is the format tag every control envelope starts with.
const ctrlBinaryMagic = 0xB1

// minCitationLen is the smallest encoded citation: its u64 index, the
// u32 length of an empty record and the u16 count of an empty proof.
const minCitationLen = 8 + 4 + 2

var (
	errCtrlTruncated = errors.New("core: truncated binary ctrl message")
	errCtrlBool      = errors.New("core: binary ctrl bool byte is neither 0 nor 1")
)

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendNodes(b []byte, ns []addr.Node) []byte {
	b = appendU16(b, uint16(len(ns))) //nolint:gosec // bounded by node count
	for _, n := range ns {
		b = appendU32(b, uint32(n))
	}
	return b
}

func appendHead(b []byte, h auditlog.TreeHead) []byte {
	b = appendU64(b, h.Size)
	return append(b, h.Root[:]...)
}

func appendProof(b []byte, p auditlog.Proof) []byte {
	b = appendU16(b, uint16(len(p.Path))) //nolint:gosec // log-depth bounded
	for i := range p.Path {
		b = append(b, p.Path[i][:]...)
	}
	return b
}

// appendCtrlMsg encodes m after buf. The layout mirrors the struct:
// envelope header, optional request, optional reply, gossip fields —
// each optional section behind a presence byte.
func appendCtrlMsg(buf []byte, m *ctrlMsg) []byte {
	buf = append(buf, ctrlBinaryMagic, byte(m.Kind))
	buf = appendU32(buf, uint32(m.From))
	buf = appendU32(buf, uint32(m.To))
	buf = appendU32(buf, uint32(m.TTL)) //nolint:gosec // ≥0 when sent
	buf = appendNodes(buf, m.Avoid)

	buf = appendBool(buf, m.Req != nil)
	if m.Req != nil {
		r := m.Req
		buf = appendU64(buf, r.ID)
		buf = appendU32(buf, uint32(r.Investigator))
		buf = appendU32(buf, uint32(r.Responder))
		buf = appendU32(buf, uint32(r.Suspect))
		buf = appendU32(buf, uint32(r.Link))
		buf = appendBool(buf, r.Advertised)
		buf = appendNodes(buf, r.Avoid)
		buf = appendBool(buf, r.KnownHead != nil)
		if r.KnownHead != nil {
			buf = appendHead(buf, *r.KnownHead)
		}
	}

	buf = appendBool(buf, m.Rep != nil)
	if m.Rep != nil {
		r := m.Rep
		buf = appendU64(buf, r.ID)
		buf = appendU32(buf, uint32(r.Responder))
		buf = appendU32(buf, uint32(r.Suspect))
		buf = appendU32(buf, uint32(r.Link))
		buf = appendBool(buf, r.Answered)
		buf = appendBool(buf, r.LinkExists)
		buf = appendBool(buf, r.FirstHand)
		buf = appendBool(buf, r.Head != nil)
		if r.Head != nil {
			buf = appendHead(buf, *r.Head)
		}
		buf = appendBool(buf, r.Consistency != nil)
		if r.Consistency != nil {
			buf = appendProof(buf, *r.Consistency)
		}
		buf = appendU16(buf, uint16(len(r.Citations))) //nolint:gosec // small
		for i := range r.Citations {
			c := &r.Citations[i]
			buf = appendU64(buf, c.Index)
			buf = appendU32(buf, uint32(len(c.Record))) //nolint:gosec // log line
			buf = append(buf, c.Record...)
			buf = appendProof(buf, c.Proof)
		}
	}

	buf = appendU32(buf, uint32(m.Origin))
	buf = appendBool(buf, m.Head != nil)
	if m.Head != nil {
		buf = appendHead(buf, *m.Head)
	}
	buf = appendU64(buf, m.HeadPrev)
	buf = appendBool(buf, m.HeadProof != nil)
	if m.HeadProof != nil {
		buf = appendProof(buf, *m.HeadProof)
	}
	return buf
}

// ctrlReader is a bounds-checked cursor over an encoded envelope.
type ctrlReader struct {
	b   []byte
	err error
}

func (r *ctrlReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = errCtrlTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *ctrlReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// boolean reads a presence or flag byte. Only 0 and 1 are valid, so
// every value has exactly one encoding.
func (r *ctrlReader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	// u8 yields 0 once r.err is set, so r.err is still nil here.
	r.err = errCtrlBool
	return false
}

func (r *ctrlReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *ctrlReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *ctrlReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *ctrlReader) node() addr.Node { return addr.Node(r.u32()) }

// count reads a u16 element count and rejects it when the bytes left
// cannot hold that many elements of at least size bytes each, so no
// slice is ever sized from a count the frame does not back. It returns
// 0 once r.err is set.
func (r *ctrlReader) count(size int) int {
	n := int(r.u16())
	if len(r.b) < n*size {
		r.err = errCtrlTruncated
		return 0
	}
	return n
}

// nodes reads a node list into *buf's storage, which grows to fit and
// is kept for the next read. An empty list is nil.
func (r *ctrlReader) nodes(buf *[]addr.Node) []addr.Node {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	out := grown(buf, n)
	for i := range out {
		out[i] = r.node()
	}
	return out
}

func (r *ctrlReader) head() auditlog.TreeHead {
	var h auditlog.TreeHead
	h.Size = r.u64()
	copy(h.Root[:], r.take(auditlog.HashSize))
	return h
}

// proof reads a proof path into *buf's storage, as nodes does.
func (r *ctrlReader) proof(buf *[]auditlog.Hash) auditlog.Proof {
	n := r.count(auditlog.HashSize)
	if n == 0 {
		return auditlog.Proof{}
	}
	p := auditlog.Proof{Path: grown(buf, n)}
	for i := range p.Path {
		copy(p.Path[i][:], r.take(auditlog.HashSize))
	}
	return p
}

// grown returns n elements of *buf's storage, growing it first when it
// is too short.
func grown[E any](buf *[]E, n int) []E {
	if cap(*buf) < n {
		*buf = make([]E, n)
	}
	return (*buf)[:n]
}

// ctrlScratch is the decode target of every control envelope, one per
// Network: the envelope, the request or reply it carries, every tree
// head and proof in it, and the storage its node lists, proof paths and
// citations are read into. Each decode overwrites it, so a handler
// keeps nothing it points to:
//   - handleTreeHead stores the head by value, and relayTreeHead and
//     forwardCtrl encode the envelope before they return;
//   - Responder.Answer takes the request by value and keeps none of it,
//     and deliverCtrl encodes the reply envelope, which reuses the
//     request envelope's Avoid list, before it returns;
//   - Detector.HandleReply keeps only the reply's Eq. 8 observation
//     (responder, evidence and proof weight).
//
// The kernel runs one handler at a time and no handler decodes another
// frame, so one scratch serves every node of the network.
type ctrlScratch struct {
	msg      ctrlMsg
	req      detect.VerifyRequest
	rep      detect.VerifyReply
	head     auditlog.TreeHead // the gossiped head
	proof    auditlog.Proof    // the gossiped head's proof
	known    auditlog.TreeHead // the request's KnownHead
	repHead  auditlog.TreeHead // the reply's Head
	cons     auditlog.Proof    // the reply's Consistency
	cites    []detect.Citation // the reply's Citations
	avoid    []addr.Node
	reqAvoid []addr.Node
	path     []auditlog.Hash   // proof's path
	consPath []auditlog.Hash   // cons's path
	citePath [][]auditlog.Hash // each citation's proof path, by slot
}

// decodeCtrlMsg decodes a control envelope (format tag included) into s,
// so the result is valid only until the next decode into s. Only a
// citation's record is copied into a fresh string.
func decodeCtrlMsg(b []byte, s *ctrlScratch) (*ctrlMsg, error) {
	r := ctrlReader{b: b}
	if r.u8() != ctrlBinaryMagic {
		return nil, errors.New("core: ctrl message lacks its format tag")
	}
	kind := ctrlKind(r.u8())
	switch kind {
	case ctrlVerifyReq, ctrlVerifyRep, ctrlTreeHead:
	default:
		return nil, errors.New("core: unknown binary ctrl kind")
	}
	m := &s.msg
	*m = ctrlMsg{Kind: kind}
	m.From = r.node()
	m.To = r.node()
	m.TTL = int(r.u32())
	m.Avoid = r.nodes(&s.avoid)

	if r.boolean() {
		req := &s.req
		*req = detect.VerifyRequest{}
		req.ID = r.u64()
		req.Investigator = r.node()
		req.Responder = r.node()
		req.Suspect = r.node()
		req.Link = r.node()
		req.Advertised = r.boolean()
		req.Avoid = r.nodes(&s.reqAvoid)
		if r.boolean() {
			s.known = r.head()
			req.KnownHead = &s.known
		}
		m.Req = req
	}

	if r.boolean() {
		rep := &s.rep
		*rep = detect.VerifyReply{}
		rep.ID = r.u64()
		rep.Responder = r.node()
		rep.Suspect = r.node()
		rep.Link = r.node()
		rep.Answered = r.boolean()
		rep.LinkExists = r.boolean()
		rep.FirstHand = r.boolean()
		if r.boolean() {
			s.repHead = r.head()
			rep.Head = &s.repHead
		}
		if r.boolean() {
			s.cons = r.proof(&s.consPath)
			rep.Consistency = &s.cons
		}
		if n := r.count(minCitationLen); n > 0 {
			rep.Citations = grown(&s.cites, n)
			paths := grown(&s.citePath, n)
			for i := range rep.Citations {
				c := &rep.Citations[i]
				c.Index = r.u64()
				c.Record = string(r.take(int(r.u32())))
				c.Proof = r.proof(&paths[i])
			}
		}
		m.Rep = rep
	}

	m.Origin = r.node()
	if r.boolean() {
		s.head = r.head()
		m.Head = &s.head
	}
	m.HeadPrev = r.u64()
	if r.boolean() {
		s.proof = r.proof(&s.path)
		m.HeadProof = &s.proof
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, errors.New("core: trailing bytes after binary ctrl message")
	}
	return m, nil
}
