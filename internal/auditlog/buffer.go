package auditlog

import (
	"fmt"
	"strings"
	"time"
	"unsafe"

	"repro/internal/addr"
)

// Buffer is an append-only log with stable sequence numbers, so multiple
// cursors can read it independently. A record's sequence number is its
// position in the log.
//
// Each record is stored once, as its canonical line (Record.String), the
// text a routing daemon would have written. The lines live in append-only
// byte chunks; a pointer-free index, in pages, keeps each record's exact
// time (the line renders milliseconds), its node and where its line lies.
// Readers take the lines as they are: the detector's signature matcher
// reads their fields in place, citations return them, and sealing hashes
// them. Since decodes them back into Records — exactly,
// because ParseLine inverts the rendering and T comes from the index.
//
// A buffer armed with SetSealKey also seals every appended record
// (seal.go): its canonical line becomes a leaf of the log's Merkle tree,
// making any later rewrite of history evident. Sealing is pure
// computation — it draws no randomness and schedules nothing — so a
// sealed and an unsealed run of the same simulation are byte-identical;
// an unarmed buffer pays no sealing cost at all.
type Buffer struct {
	// chunks hold the lines. A chunk is only ever appended to, and a byte
	// once written is never written again, which is what lets a Line's
	// Text alias it.
	chunks [][]byte
	// pages index the records, oldest first, pageRefs to a page: record
	// i is pages[i/pageRefs][i%pageRefs]. Every page but the last is
	// full. The first page grows by append, so a short log costs no more
	// than one slice; every later page is made at full size, so a long
	// log's index is never copied as it grows.
	pages   [][]lineRef
	scratch []byte // leaf prefix followed by the line being stored
	seal    seal
	// onSeal, when set, observes each sealed record's sequence number
	// (the run-trace plane hooks here). It never fires on an unarmed
	// buffer.
	onSeal func(seq uint64)
}

// lineRef locates one record's line and carries the header values a
// reader needs without re-parsing them.
type lineRef struct {
	t      time.Duration
	node   addr.Node
	chunk  uint32 // index into chunks
	off, n uint32 // the line is chunk[off:off+n]
}

// Chunks start small, so the many short logs of a small campaign stay
// cheap, and double up to maxChunk, so a long log wastes at most one
// partly filled chunk.
const (
	firstChunk = 256
	maxChunk   = 64 << 10
)

// pageRefs is the number of index entries in a page (96 KiB).
const pageRefs = 1 << 12

// SetOnSeal installs an observer called with the sequence number of
// every record sealed into the Merkle tree. Observation only.
func (b *Buffer) SetOnSeal(fn func(seq uint64)) { b.onSeal = fn }

// Append adds a record, sealing it when the buffer is armed. A record
// with no Kind has no line that decodes, so Append rejects it.
func (b *Buffer) Append(r Record) {
	leafInput := b.render(r)
	if b.seal.enabled {
		b.seal.append(leafInput)
		if b.onSeal != nil {
			b.onSeal(b.NextSeq())
		}
	}
	line := leafInput[1:]
	copy(b.reserve(r.T, r.Node, len(line)), line)
}

// render renders r once, into scratch after the leaf prefix byte, and
// returns that leaf input: sealing hashes all of it, and the line
// stored is the rest.
func (b *Buffer) render(r Record) []byte {
	if r.Kind == "" {
		panic("auditlog: record with no kind")
	}
	b.scratch = r.appendLine(append(b.scratch[:0], prefixLeaf))
	return b.scratch
}

// reserve indexes a new record whose line is n bytes long and returns the
// chunk space to copy the line into.
func (b *Buffer) reserve(t time.Duration, node addr.Node, n int) []byte {
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last])+n > cap(b.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(b.chunks[last]), maxChunk)
		}
		b.chunks = append(b.chunks, make([]byte, 0, max(size, n)))
		last++
	}
	c := b.chunks[last]
	off := len(c)
	b.pushRef(lineRef{
		t: t, node: node,
		chunk: uint32(last), //nolint:gosec // chunk count fits
		off:   uint32(off),  //nolint:gosec // off < maxChunk or a lone line
		n:     uint32(n),    //nolint:gosec // one line
	})
	b.chunks[last] = c[:off+n]
	return b.chunks[last][off:]
}

// pushRef appends ref to the index, opening a full-size page when the
// last one is full.
func (b *Buffer) pushRef(ref lineRef) {
	last := len(b.pages) - 1
	if last < 0 || len(b.pages[last]) == pageRefs {
		var p []lineRef // the first page grows by append
		if last >= 0 {
			p = make([]lineRef, 0, pageRefs)
		}
		b.pages = append(b.pages, p)
		last++
	}
	b.pages[last] = append(b.pages[last], ref)
}

// ref returns the index entry of record i.
func (b *Buffer) ref(i int) *lineRef { return &b.pages[i/pageRefs][i%pageRefs] }

// truncate drops the index entries of records n and later, and the pages
// left empty.
func (b *Buffer) truncate(n int) {
	np := (n + pageRefs - 1) / pageRefs
	clear(b.pages[np:])
	b.pages = b.pages[:np]
	if np > 0 {
		b.pages[np-1] = b.pages[np-1][:n-(np-1)*pageRefs]
	}
}

// line returns record i.
func (b *Buffer) line(i int) Line {
	ref := b.ref(i)
	c := b.chunks[ref.chunk]
	return Line{
		Seq:  uint64(i), //nolint:gosec // i >= 0
		T:    ref.t,
		Node: ref.node,
		Text: unsafe.String(&c[ref.off], int(ref.n)),
	}
}

// Len returns the number of records.
func (b *Buffer) Len() int {
	if len(b.pages) == 0 {
		return 0
	}
	return (len(b.pages)-1)*pageRefs + len(b.pages[len(b.pages)-1])
}

// NextSeq returns the sequence number the next appended record will get.
func (b *Buffer) NextSeq() uint64 { return uint64(b.Len()) }

// LineAt returns the record with sequence number seq, or false when seq
// is not yet appended.
func (b *Buffer) LineAt(seq uint64) (Line, bool) {
	if seq >= b.NextSeq() {
		return Line{}, false
	}
	return b.line(int(seq)), true //nolint:gosec // bounded by len
}

// Since decodes the records with sequence numbers >= seq and returns the
// sequence number to pass next time.
func (b *Buffer) Since(seq uint64) ([]Record, uint64) {
	if seq >= b.NextSeq() {
		return nil, b.NextSeq()
	}
	start, n := int(seq), b.Len() //nolint:gosec // bounded by len
	out := make([]Record, 0, n-start)
	for i := start; i < n; i++ {
		l := b.line(i)
		r, err := ParseLine(l.Text)
		if err != nil {
			panic(fmt.Sprintf("auditlog: stored line does not decode: %v", err))
		}
		r.T = l.T
		out = append(out, r)
	}
	return out, b.NextSeq()
}

// Line is one record as the canonical line it is stored as, with the
// header values the buffer keeps beside it. Text aliases the buffer's
// storage, which is never written again, so a Line stays valid after
// later appends and rewrites.
//
// The accessors read the line in place and allocate nothing unless a
// token holds a percent escape, which no protocol token does. They rely
// on the line being canonical — tokens separated by single spaces, as
// appendLine renders them — which every Line a Buffer hands out is.
type Line struct {
	Seq  uint64
	T    time.Duration // exact; the text renders whole milliseconds
	Node addr.Node
	Text string
}

// split returns the line's raw kind token and its raw field tokens.
func (l Line) split() (kind, fields string) {
	_, s, _ := strings.Cut(l.Text, " ") // t=
	_, s, _ = strings.Cut(s, " ")       // node=
	kind, fields, _ = strings.Cut(s, " ")
	return strings.TrimPrefix(kind, "kind="), fields
}

// unescaped inverts appendEscaped on a token of a canonical line.
func unescaped(tok string) string {
	s, err := unescapeToken(tok)
	if err != nil {
		panic(fmt.Sprintf("auditlog: stored token %q: %v", tok, err))
	}
	return s
}

// Kind returns the record's kind.
func (l Line) Kind() Kind {
	kind, _ := l.split()
	return Kind(unescaped(kind))
}

// Get returns the value of the first field with the given key, as
// Record.Get does on the decoded record.
func (l Line) Get(key string) (string, bool) {
	_, fields := l.split()
	for fields != "" {
		var tok string
		tok, fields, _ = strings.Cut(fields, " ")
		k, v, _ := strings.Cut(tok, "=")
		if unescaped(k) == key {
			return unescaped(v), true
		}
	}
	return "", false
}

// NodeField parses the named field as a single address.
func (l Line) NodeField(key string) (addr.Node, error) {
	v, ok := l.Get(key)
	if !ok {
		return addr.None, fmt.Errorf("auditlog: record %s has no field %q", l.Kind(), key)
	}
	return addr.Parse(v)
}

// NodesField parses the named field as a comma-separated address list,
// built in dst's storage (nil allocates). A missing or empty field yields
// an empty list.
func (l Line) NodesField(key string, dst []addr.Node) ([]addr.Node, error) {
	v, _ := l.Get(key)
	return parseNodes(key, v, dst)
}

// Cursor incrementally reads a Buffer.
type Cursor struct {
	buf  *Buffer
	next uint64
}

// NewCursor returns a cursor positioned at the start of the buffer.
func NewCursor(b *Buffer) *Cursor { return &Cursor{buf: b} }

// Next returns the oldest record the cursor has not returned yet. Once
// it reports false the cursor sits at NextSeq, so the records appended
// after that are the ones it returns next.
func (c *Cursor) Next() (Line, bool) {
	l, ok := c.buf.LineAt(c.next)
	if !ok {
		c.next = c.buf.NextSeq()
		return Line{}, false
	}
	c.next++
	return l, true
}
