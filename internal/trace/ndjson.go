package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// The NDJSON codec. Encoding is hand-rolled with a fixed field order
// (ord, t, plane, kind, node, peer, msg, v0, v1) and omitted zero
// fields, so the same event always renders the same bytes — the
// property that makes byte-level trace comparison meaningful. Decoding
// goes through encoding/json, which accepts the encoder's output and
// any field order a foreign producer might use.

// AppendNDJSON appends the event's one-line JSON rendering plus a
// trailing newline to b and returns the extended slice. Values must be
// finite (the simulation clamps everything it traces; NaN/Inf are not
// JSON).
func (e *Event) AppendNDJSON(b []byte) []byte {
	b = append(b, `{"ord":`...)
	b = strconv.AppendUint(b, e.Ord, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(e.T), 10)
	b = append(b, `,"plane":`...)
	b = appendJSONString(b, e.Plane)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, e.Kind)
	if e.Node != "" {
		b = append(b, `,"node":`...)
		b = appendJSONString(b, e.Node)
	}
	if e.Peer != "" {
		b = append(b, `,"peer":`...)
		b = appendJSONString(b, e.Peer)
	}
	if e.Msg != "" {
		b = append(b, `,"msg":`...)
		b = appendJSONString(b, e.Msg)
	}
	if e.V0 != 0 {
		b = append(b, `,"v0":`...)
		b = strconv.AppendFloat(b, e.V0, 'g', -1, 64)
	}
	if e.V1 != 0 {
		b = append(b, `,"v1":`...)
		b = strconv.AppendFloat(b, e.V1, 'g', -1, 64)
	}
	b = append(b, '}', '\n')
	return b
}

// appendJSONString appends s as a JSON string literal: quotation mark,
// reverse solidus and control characters escaped per RFC 8259, every
// other byte verbatim. Invalid UTF-8 is replaced with U+FFFD exactly
// like encoding/json, keeping the output always-valid JSON.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"':
				b = append(b, '\\', '"')
			case c == '\\':
				b = append(b, '\\', '\\')
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			case c < 0x20:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0x0f])
			default:
				b = append(b, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, "�"...)
			i++
			continue
		}
		b = append(b, s[i:i+size]...)
		i += size
	}
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// DecodeLine parses one NDJSON line back into an Event.
func DecodeLine(line []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return Event{}, fmt.Errorf("trace: bad event line: %w", err)
	}
	return e, nil
}

// maxLine bounds a single trace line for the scanner. Events are small
// (a line is well under 200 bytes), but the bound is generous so a
// foreign trace with long Msg payloads still reads.
const maxLine = 1 << 20

// Scanner reads an NDJSON trace stream line by line.
type Scanner struct {
	s    *bufio.Scanner
	line int
}

// NewScanner wraps r for line-oriented trace reading.
func NewScanner(r io.Reader) *Scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64*1024), maxLine)
	return &Scanner{s: s}
}

// Next returns the next event. io.EOF signals a clean end of stream;
// blank lines are skipped.
func (sc *Scanner) Next() (Event, error) {
	for sc.s.Scan() {
		sc.line++
		b := sc.s.Bytes()
		if len(b) == 0 {
			continue
		}
		e, err := DecodeLine(b)
		if err != nil {
			return Event{}, fmt.Errorf("line %d: %w", sc.line, err)
		}
		return e, nil
	}
	if err := sc.s.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.EOF
}

// Line returns the 1-based line number of the last event returned.
func (sc *Scanner) Line() int { return sc.line }
