// Package auditlog implements the routing audit log that the intrusion
// detector consumes.
//
// The paper's central implementation choice (§III) is that the detector
// does not sniff packets: it parses the logs already produced by the
// routing daemon. This package provides the structured record type, a
// text codec equivalent to a routing daemon's log lines, and an
// append-only buffer with cursors so a detector can incrementally read
// "what happened since I last looked".
package auditlog

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/addr"
)

// Kind classifies a log record. The set mirrors what an OLSR daemon logs
// about its own activity (message rx/tx/forward, table changes).
type Kind string

// Record kinds emitted by the OLSR implementation.
const (
	KindHelloTx      Kind = "HELLO_TX"
	KindHelloRx      Kind = "HELLO_RX"
	KindTCTx         Kind = "TC_TX"
	KindTCRx         Kind = "TC_RX"
	KindTCFwd        Kind = "TC_FWD"
	KindMsgDrop      Kind = "MSG_DROP"
	KindNeighborUp   Kind = "NEIGHBOR_UP"
	KindNeighborDown Kind = "NEIGHBOR_DOWN"
	KindTwoHopUp     Kind = "TWOHOP_UP"
	KindTwoHopDown   Kind = "TWOHOP_DOWN"
	KindMPRSet       Kind = "MPR_SET"
	KindMPRSelector  Kind = "MPR_SELECTOR"
	KindBadPacket    Kind = "BAD_PACKET"
)

// Field is one key=value pair of a record. Keys and free-text values may
// contain arbitrary bytes — the codec percent-escapes the separator
// characters — but conventional values are plain tokens; lists are
// comma-separated.
//
// F builds a free-text field. FNode, FNodes and FInt keep their value
// typed and render it into the record's line when the line is rendered:
// an address, a list or an integer holds no byte that needs escaping, so
// it is written straight into the line with no string built first. A
// decoded record's fields are all free text; Get and the typed accessors
// return the same values for a built record and for its decoded twin.
type Field struct {
	Key   string
	text  string      // formText: the value
	nodes []addr.Node // formNodes: aliases the caller's slice
	num   int         // formInt
	node  addr.Node   // formNode
	form  fieldForm
}

// fieldForm says which of a Field's value slots holds its value.
type fieldForm uint8

const (
	formText fieldForm = iota // the zero Field is an empty free-text field
	formNode
	formNodes
	formInt
)

// F builds a free-text field.
func F(key, value string) Field { return Field{Key: key, text: value} }

// FNode builds a field holding one node address.
func FNode(key string, n addr.Node) Field { return Field{Key: key, node: n, form: formNode} }

// FNodes builds a field holding a comma-separated node list in the given
// order (callers sort for determinism). The field aliases nodes and
// renders them when its record is rendered, so the caller must not
// modify nodes before then.
func FNodes(key string, nodes []addr.Node) Field {
	return Field{Key: key, nodes: nodes, form: formNodes}
}

// FInt builds an integer field.
func FInt(key string, v int) Field { return Field{Key: key, num: v, form: formInt} }

// value returns the field's value as its record's line renders it,
// before escaping.
func (f *Field) value() string {
	if f.form == formText {
		return f.text
	}
	return string(f.appendValue(nil))
}

// appendValue appends the field's value as the line renders it: free
// text escaped, typed values written straight in, since no address,
// comma or integer needs escaping.
//
//repro:allocfree
func (f *Field) appendValue(b []byte) []byte {
	switch f.form {
	case formNode:
		return f.node.AppendText(b)
	case formNodes:
		for i, n := range f.nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = n.AppendText(b)
		}
		return b
	case formInt:
		return strconv.AppendInt(b, int64(f.num), 10)
	}
	return appendEscaped(b, f.text)
}

// Record is one audit log entry.
type Record struct {
	T      time.Duration // virtual time of the event
	Node   addr.Node     // the node whose daemon logged it
	Kind   Kind
	Fields []Field
}

// Get returns the value of the first field with the given key.
func (r *Record) Get(key string) (string, bool) {
	for i := range r.Fields {
		if f := &r.Fields[i]; f.Key == key {
			return f.value(), true
		}
	}
	return "", false
}

// NodeField parses the named field as a single address.
func (r *Record) NodeField(key string) (addr.Node, error) {
	v, ok := r.Get(key)
	if !ok {
		return addr.None, fmt.Errorf("auditlog: record %s has no field %q", r.Kind, key)
	}
	return addr.Parse(v)
}

// NodesField parses the named field as a comma-separated address list. A
// missing or empty field yields an empty list.
func (r *Record) NodesField(key string) ([]addr.Node, error) {
	v, _ := r.Get(key)
	return parseNodes(key, v, nil)
}

// parseNodes parses the value v of field key as a comma-separated address
// list, built in dst's storage (nil allocates); an empty value is an
// empty list.
func parseNodes(key, v string, dst []addr.Node) ([]addr.Node, error) {
	if v == "" {
		return dst[:0], nil
	}
	// Walk the commas in place instead of materializing a []string; the
	// segment semantics (including empty segments around stray commas)
	// match strings.Split exactly.
	out := slices.Grow(dst[:0], strings.Count(v, ",")+1)
	for {
		p, rest, found := strings.Cut(v, ",")
		n, err := addr.Parse(p)
		if err != nil {
			return nil, fmt.Errorf("auditlog: field %q: %w", key, err)
		}
		out = append(out, n)
		if !found {
			return out, nil
		}
		v = rest
	}
}

const hexDigits = "0123456789ABCDEF"

// needsEscape reports whether a rune must not appear raw inside a key,
// kind or value: the token separators (ParseLine splits with
// strings.Fields, which breaks on ALL Unicode whitespace, not just
// ASCII), the key/value separator, and the escape character itself.
func needsEscape(r rune) bool {
	return r == '%' || r == '=' || unicode.IsSpace(r)
}

// appendEscaped appends s to b, percent-escaping the separator runes
// (each UTF-8 byte individually) so any string survives the line codec.
// It renders kinds, keys and free-text values; the protocol's own
// (constant kinds and keys, reason words) contain none and are appended
// verbatim after one plainASCII scan.
func appendEscaped(b []byte, s string) []byte {
	if plainASCII(s) || strings.IndexFunc(s, needsEscape) < 0 {
		return append(b, s...)
	}
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if needsEscape(r) {
			for j := i; j < i+size; j++ {
				b = append(b, '%', hexDigits[s[j]>>4], hexDigits[s[j]&0x0f])
			}
		} else {
			// Invalid UTF-8 bytes (RuneError, size 1) pass through raw:
			// they are not whitespace to strings.Fields either.
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return b
}

// plainASCII reports whether s is ASCII with no byte needsEscape
// matches. It decides the common case without decoding runes; the only
// whitespace below utf8.RuneSelf is '\t' through '\r' and ' '.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf, c == '%', c == '=', c == ' ', c >= '\t' && c <= '\r':
			return false
		}
	}
	return true
}

// appendSeconds appends strconv.AppendFloat(b, t.Seconds(), 'f', 3, 64).
// With a fixed precision AppendFloat always takes its multi-precision
// path, which made it the costliest part of rendering a line. For
// 0 <= t < 10^6 s, t.Seconds() lies within a nanosecond of t, so it
// rounds to the same millisecond as t in integer arithmetic — unless t
// sits exactly on a half millisecond, where the float's own rounding
// decides. Those times, and the rest, keep the float rendering.
func appendSeconds(b []byte, t time.Duration) []byte {
	const halfMs = time.Millisecond / 2
	if t < 0 || t >= 1e6*time.Second || t%time.Millisecond == halfMs {
		return strconv.AppendFloat(b, t.Seconds(), 'f', 3, 64)
	}
	ms := int64((t + halfMs) / time.Millisecond)
	b = strconv.AppendInt(b, ms/1000, 10)
	frac := ms % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// unescapeToken inverts escapeToken.
func unescapeToken(s string) (string, error) {
	if !strings.Contains(s, "%") {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("truncated %%-escape in %q", s)
		}
		hi := strings.IndexByte(hexDigits, upperHex(s[i+1]))
		lo := strings.IndexByte(hexDigits, upperHex(s[i+2]))
		if hi < 0 || lo < 0 {
			return "", fmt.Errorf("bad %%-escape %q in %q", s[i:i+3], s)
		}
		b.WriteByte(byte(hi<<4 | lo))
		i += 2
	}
	return b.String(), nil
}

func upperHex(c byte) byte {
	if c >= 'a' && c <= 'f' {
		return c - 'a' + 'A'
	}
	return c
}

// String renders the record as one log line:
//
//	t=2.000s node=10.0.0.1 kind=HELLO_RX from=10.0.0.2 sym=10.0.0.3,10.0.0.4
//
// Separator bytes inside kinds, keys or values are percent-escaped, so
// the rendering is injective over (Kind, Node, Fields) and ParseLine
// inverts it exactly — the property the sealed log's leaf hashing and
// the proof-carrying citations depend on.
func (r *Record) String() string {
	return string(r.appendLine(make([]byte, 0, 96)))
}

// appendLine appends the String rendering to b — every Buffer.Append
// renders its record's line, so the renderer must not allocate per
// record.
//
//repro:allocfree
func (r *Record) appendLine(b []byte) []byte {
	b = append(b, "t="...)
	b = appendSeconds(b, r.T)
	b = append(b, "s node="...)
	b = r.Node.AppendText(b)
	b = append(b, " kind="...)
	b = appendEscaped(b, string(r.Kind))
	for i := range r.Fields {
		f := &r.Fields[i]
		b = append(b, ' ')
		b = appendEscaped(b, f.Key)
		b = append(b, '=')
		b = f.appendValue(b)
	}
	return b
}

// ParseError is the typed error every auditlog decoding path returns: it
// names the offending line and token so log-ingest failures are
// attributable instead of silently skipped.
type ParseError struct {
	Line  string // the rejected line
	Token string // the offending token, when one is identifiable
	Msg   string // what was wrong
	Err   error  // underlying parse error, if any
}

// Error implements error.
func (e *ParseError) Error() string {
	s := "auditlog: " + e.Msg
	if e.Token != "" {
		s += fmt.Sprintf(" (token %q)", e.Token)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// ParseLine inverts Record.String. The header is positional — token 0
// is `t=`, token 1 `node=`, token 2 `kind=` — exactly as String renders
// it; a field that happens to be KEYED "t", "node" or "kind" therefore
// always decodes back into a field, never into the header, which is
// what makes the codec an exact inverse for every record (including one
// whose Node is the zero address). All errors are *ParseError.
func ParseLine(line string) (Record, error) {
	var r Record
	fail := func(tok, msg string, err error) (Record, error) {
		return Record{}, &ParseError{Line: line, Token: tok, Msg: msg, Err: err}
	}
	for i, tok := range strings.Fields(line) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return fail(tok, "token is not key=value", nil)
		}
		switch i {
		case 0:
			if k != "t" {
				return fail(tok, "line must start with t=", nil)
			}
			secs, err := strconv.ParseFloat(strings.TrimSuffix(v, "s"), 64)
			if err != nil {
				return fail(tok, "bad time", err)
			}
			// The codec renders whole milliseconds; rounding at that
			// granularity makes decode(encode(r)) recover r.T exactly
			// instead of landing one ULP short after the float multiply.
			ms := math.Round(secs * 1e3)
			const msRange = float64(math.MaxInt64 / int64(time.Millisecond))
			if !(ms >= -msRange && ms <= msRange) {
				return fail(tok, "time out of range", nil)
			}
			r.T = time.Duration(ms) * time.Millisecond
		case 1:
			if k != "node" {
				return fail(tok, "second token must be node=", nil)
			}
			n, err := addr.Parse(v)
			if err != nil {
				return fail(tok, "bad node", err)
			}
			r.Node = n
		case 2:
			if k != "kind" {
				return fail(tok, "third token must be kind=", nil)
			}
			kind, err := unescapeToken(v)
			if err != nil {
				return fail(tok, "bad kind", err)
			}
			if kind == "" {
				return fail(tok, "empty kind", nil)
			}
			r.Kind = Kind(kind)
		default:
			key, err := unescapeToken(k)
			if err != nil {
				return fail(tok, "bad field key", err)
			}
			val, err := unescapeToken(v)
			if err != nil {
				return fail(tok, "bad field value", err)
			}
			r.Fields = append(r.Fields, F(key, val))
		}
	}
	if r.Kind == "" {
		return fail("", "line has no kind", nil)
	}
	return r, nil
}
