package auditlog

import (
	"errors"
	"testing"
	"time"

	"repro/internal/addr"
)

func sample() Record {
	return Record{
		T:    2500 * time.Millisecond,
		Node: addr.NodeAt(1),
		Kind: KindHelloRx,
		Fields: []Field{
			FNode("from", addr.NodeAt(2)),
			FNodes("sym", []addr.Node{addr.NodeAt(3), addr.NodeAt(4)}),
			FInt("will", 3),
		},
	}
}

// fieldText renders f as key=value, as its record's line does. Tests
// compare fields through it: a typed field and its decoded twin differ in
// form, and must render alike.
func fieldText(f Field) string {
	return string(f.appendValue(append(appendEscaped(nil, f.Key), '=')))
}

func TestRecordString(t *testing.T) {
	r := sample()
	got := r.String()
	want := "t=2.500s node=10.0.0.1 kind=HELLO_RX from=10.0.0.2 sym=10.0.0.3,10.0.0.4 will=3"
	if got != want {
		t.Errorf("String() =\n  %q\nwant\n  %q", got, want)
	}
}

func TestParseLineRoundTrip(t *testing.T) {
	r := sample()
	got, err := ParseLine(r.String())
	if err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	if got.T != r.T || got.Node != r.Node || got.Kind != r.Kind {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Fields) != len(r.Fields) {
		t.Fatalf("fields = %+v", got.Fields)
	}
	for i := range r.Fields {
		if g, w := fieldText(got.Fields[i]), fieldText(r.Fields[i]); g != w {
			t.Errorf("field %d = %q, want %q", i, g, w)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, line := range []string{
		"",                           // no kind
		"t=1.0s node=10.0.0.1",       // still no kind
		"t=abc node=10.0.0.1 kind=X", // bad time
		"t=1.0s node=nope kind=X",    // bad node
		"justaword",                  // not key=value
	} {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) succeeded, want error", line)
		}
	}
}

func TestFieldAccessors(t *testing.T) {
	r := sample()
	if v, ok := r.Get("from"); !ok || v != "10.0.0.2" {
		t.Errorf("Get(from) = %q, %v", v, ok)
	}
	if _, ok := r.Get("absent"); ok {
		t.Error("Get(absent) found something")
	}
	n, err := r.NodeField("from")
	if err != nil || n != addr.NodeAt(2) {
		t.Errorf("NodeField = %v, %v", n, err)
	}
	if _, err := r.NodeField("absent"); err == nil {
		t.Error("NodeField(absent) no error")
	}
	ns, err := r.NodesField("sym")
	if err != nil || len(ns) != 2 || ns[0] != addr.NodeAt(3) {
		t.Errorf("NodesField = %v, %v", ns, err)
	}
	if ns, err := r.NodesField("absent"); err != nil || ns != nil {
		t.Errorf("NodesField(absent) = %v, %v", ns, err)
	}
}

func TestEscapedRoundTrip(t *testing.T) {
	r := Record{
		T: time.Second, Node: addr.NodeAt(3), Kind: Kind("ODD KIND"),
		Fields: []Field{
			F("detail", "a b=c"),
			F("multi\nline", "100%"),
			F("nbsp", "x y"),
			F("empty", ""),
		},
	}
	line := r.String()
	got, err := ParseLine(line)
	if err != nil {
		t.Fatalf("ParseLine(%q): %v", line, err)
	}
	if got.Kind != r.Kind || len(got.Fields) != len(r.Fields) {
		t.Fatalf("round trip changed the record: %+v", got)
	}
	for i := range r.Fields {
		if g, w := fieldText(got.Fields[i]), fieldText(r.Fields[i]); g != w {
			t.Errorf("field %d = %q, want %q", i, g, w)
		}
	}
	// The delimiter bug class: two different records must never render
	// to the same line.
	r2 := Record{T: time.Second, Node: addr.NodeAt(3), Kind: "K",
		Fields: []Field{F("a", "1 b=2")}}
	r3 := Record{T: time.Second, Node: addr.NodeAt(3), Kind: "K",
		Fields: []Field{F("a", "1"), F("b", "2")}}
	if r2.String() == r3.String() {
		t.Fatal("distinct records share a rendering")
	}
}

func TestReservedFieldKeysRoundTrip(t *testing.T) {
	// Header parsing is positional, so fields KEYED like header tokens —
	// even on a record whose Node is the zero address — must decode back
	// into fields, not be swallowed into the header.
	r := Record{
		Kind: "K",
		Fields: []Field{
			F("node", "10.0.0.5"),
			F("t", "9.000s"),
			F("kind", "X"),
		},
	}
	got, err := ParseLine(r.String())
	if err != nil {
		t.Fatalf("ParseLine(%q): %v", r.String(), err)
	}
	if got.Node != addr.None || got.T != 0 || got.Kind != "K" {
		t.Fatalf("header corrupted by reserved field keys: %+v", got)
	}
	if len(got.Fields) != 3 || fieldText(got.Fields[0]) != fieldText(r.Fields[0]) ||
		fieldText(got.Fields[1]) != fieldText(r.Fields[1]) || fieldText(got.Fields[2]) != fieldText(r.Fields[2]) {
		t.Fatalf("fields changed: %+v", got.Fields)
	}
	// And the header really is positional: a shuffled line is rejected.
	if _, err := ParseLine("node=10.0.0.1 t=1.000s kind=K"); err == nil {
		t.Error("out-of-order header accepted")
	}
}

func TestParseLineTypedError(t *testing.T) {
	_, err := ParseLine("t=1.0s node=10.0.0.1 kind=X bad%zz=1")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *ParseError", err)
	}
	if pe.Token == "" || pe.Line == "" {
		t.Errorf("ParseError lacks context: %+v", pe)
	}
	if _, err := ParseLine("t=99999999999999999999s node=10.0.0.1 kind=X"); err == nil {
		t.Error("absurd time accepted")
	}
}

func TestNodesFieldBadValue(t *testing.T) {
	r := Record{Kind: KindHelloRx, Fields: []Field{F("sym", "10.0.0.1,garbage")}}
	if _, err := r.NodesField("sym"); err == nil {
		t.Error("bad list parsed")
	}
}

func TestBufferAppendAndSince(t *testing.T) {
	var b Buffer
	for i := 0; i < 5; i++ {
		b.Append(Record{Kind: KindHelloTx, Fields: []Field{FInt("i", i)}})
	}
	recs, next := b.Since(0)
	if len(recs) != 5 || next != 5 {
		t.Fatalf("Since(0) = %d recs, next %d", len(recs), next)
	}
	recs, next = b.Since(3)
	if len(recs) != 2 || next != 5 {
		t.Fatalf("Since(3) = %d recs, next %d", len(recs), next)
	}
	recs, _ = b.Since(99)
	if len(recs) != 0 {
		t.Fatalf("Since(99) = %d recs", len(recs))
	}
}

func TestAppendRejectsEmptyKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("record with no kind appended")
		}
	}()
	var b Buffer
	b.Append(Record{Node: addr.NodeAt(1)})
}

// readAll drains c.
func readAll(c *Cursor) []Line {
	var out []Line
	for l, ok := c.Next(); ok; l, ok = c.Next() {
		out = append(out, l)
	}
	return out
}

func TestCursor(t *testing.T) {
	var b Buffer
	c := NewCursor(&b)
	if got := readAll(c); len(got) != 0 {
		t.Fatalf("empty read = %d", len(got))
	}
	b.Append(Record{Kind: KindHelloTx})
	b.Append(Record{Kind: KindTCTx})
	if got := readAll(c); len(got) != 2 {
		t.Fatalf("first read = %d, want 2", len(got))
	}
	if got := readAll(c); len(got) != 0 {
		t.Fatalf("re-read = %d, want 0", len(got))
	}
	b.Append(Record{Kind: KindTCFwd})
	got := readAll(c)
	if len(got) != 1 || got[0].Kind() != KindTCFwd || got[0].Seq != 2 {
		t.Fatalf("incremental read = %+v", got)
	}
}

func TestTwoCursorsIndependent(t *testing.T) {
	var b Buffer
	b.Append(Record{Kind: KindHelloTx})
	c1, c2 := NewCursor(&b), NewCursor(&b)
	if len(readAll(c1)) != 1 {
		t.Fatal("c1 missed record")
	}
	b.Append(Record{Kind: KindTCTx})
	if len(readAll(c2)) != 2 {
		t.Fatal("c2 should see both records")
	}
	if len(readAll(c1)) != 1 {
		t.Fatal("c1 should see only the new record")
	}
}

func TestLineAccessors(t *testing.T) {
	var b Buffer
	want := sample()
	b.Append(want)
	odd := Record{T: 1500 * time.Microsecond, Node: addr.NodeAt(3), Kind: "ODD KIND",
		Fields: []Field{F("t", "x"), F("a b", "c=d%"), F("", ""), F("a b", "second")}}
	b.Append(odd)
	l, ok := b.LineAt(0)
	if !ok || l.Text != want.String() || l.T != want.T || l.Node != addr.NodeAt(1) || l.Seq != 0 {
		t.Fatalf("LineAt(0) = %+v, %v", l, ok)
	}
	if l.Kind() != KindHelloRx {
		t.Errorf("Kind = %q", l.Kind())
	}
	if n, err := l.NodeField("from"); err != nil || n != addr.NodeAt(2) {
		t.Errorf("NodeField = %v, %v", n, err)
	}
	if ns, err := l.NodesField("sym", nil); err != nil || len(ns) != 2 || ns[1] != addr.NodeAt(4) {
		t.Errorf("NodesField = %v, %v", ns, err)
	}
	if ns, err := l.NodesField("absent", nil); err != nil || ns != nil {
		t.Errorf("NodesField(absent) = %v, %v", ns, err)
	}
	dst := make([]addr.Node, 1, 4)
	if ns, err := l.NodesField("sym", dst); err != nil || len(ns) != 2 || &ns[0] != &dst[0] {
		t.Errorf("NodesField(sym, dst) = %v, %v, not built in dst", ns, err)
	}
	if _, err := l.NodeField("absent"); err == nil {
		t.Error("NodeField(absent) no error")
	}
	l, _ = b.LineAt(1)
	if l.T != odd.T || l.Kind() != "ODD KIND" {
		t.Errorf("odd line = %+v kind %q", l, l.Kind())
	}
	for _, kv := range [][2]string{{"t", "x"}, {"a b", "c=d%"}, {"", ""}} {
		if v, ok := l.Get(kv[0]); !ok || v != kv[1] {
			t.Errorf("Get(%q) = %q, %v", kv[0], v, ok)
		}
	}
	if _, ok := l.Get("kind"); ok {
		t.Error("Get(kind) read the header")
	}
	if _, ok := b.LineAt(2); ok {
		t.Error("LineAt past the end")
	}
}

// TestLineReadsAllocFree pins the reader side of the line store: walking
// a buffer with a cursor and reading a line's kind and fields in place
// allocates nothing.
func TestLineReadsAllocFree(t *testing.T) {
	var b Buffer
	for i := 0; i < 64; i++ {
		b.Append(sample())
	}
	c := NewCursor(&b)
	got := testing.AllocsPerRun(20, func() {
		c.next = 0
		for l, ok := c.Next(); ok; l, ok = c.Next() {
			if l.Kind() != KindHelloRx {
				t.Fatal("kind")
			}
			if _, ok := l.Get("will"); !ok {
				t.Fatal("will")
			}
		}
	})
	if got != 0 {
		t.Errorf("cursor walk: %.1f allocs/run, want 0", got)
	}
}
