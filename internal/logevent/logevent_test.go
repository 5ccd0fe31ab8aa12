package logevent

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
)

func rec(kind auditlog.Kind, fields ...auditlog.Field) auditlog.Record {
	return auditlog.Record{T: time.Second, Node: addr.NodeAt(1), Kind: kind, Fields: fields}
}

// line stores r in a fresh buffer and returns it as the buffer's line.
func line(r auditlog.Record) auditlog.Line {
	var b auditlog.Buffer
	b.Append(r)
	l, _ := b.LineAt(0)
	return l
}

func TestParseHelloReceived(t *testing.T) {
	r := rec(auditlog.KindHelloRx,
		auditlog.FNode("from", addr.NodeAt(2)),
		auditlog.FNodes("sym", []addr.Node{addr.NodeAt(3), addr.NodeAt(4)}),
		auditlog.FInt("will", 6),
	)
	ev, err := Parse(line(r))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	h, ok := ev.(*HelloReceived)
	if !ok {
		t.Fatalf("type %T", ev)
	}
	if h.From != addr.NodeAt(2) || len(h.SymNeighbors) != 2 || h.Willingness != 6 {
		t.Errorf("event = %+v", h)
	}
	if h.When() != time.Second || h.Observer() != addr.NodeAt(1) || h.EventKind() != auditlog.KindHelloRx {
		t.Errorf("base = %+v", h.Base)
	}
}

func TestParseHelloReceivedEmptyNeighbors(t *testing.T) {
	r := rec(auditlog.KindHelloRx, auditlog.FNode("from", addr.NodeAt(2)))
	ev, err := Parse(line(r))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if h := ev.(*HelloReceived); len(h.SymNeighbors) != 0 {
		t.Errorf("sym = %v, want empty", h.SymNeighbors)
	}
}

func TestParseAllKinds(t *testing.T) {
	tests := []struct {
		rec  auditlog.Record
		want string
	}{
		{rec(auditlog.KindHelloTx, auditlog.FNodes("sym", []addr.Node{addr.NodeAt(2)})), "*logevent.HelloSent"},
		{rec(auditlog.KindTCRx, auditlog.FNode("orig", addr.NodeAt(3)), auditlog.FInt("ansn", 7),
			auditlog.FNodes("adv", []addr.Node{addr.NodeAt(4)})), "*logevent.TCReceived"},
		{rec(auditlog.KindTCTx, auditlog.FInt("ansn", 1), auditlog.FNodes("adv", nil)), "*logevent.TCSent"},
		{rec(auditlog.KindTCFwd, auditlog.FNode("orig", addr.NodeAt(3)), auditlog.FNode("sender", addr.NodeAt(2))), "*logevent.TCForwarded"},
		{rec(auditlog.KindMsgDrop, auditlog.FNode("from", addr.NodeAt(2)), auditlog.F("reason", "dup")), "*logevent.MessageDropped"},
		{rec(auditlog.KindNeighborUp, auditlog.FNode("neighbor", addr.NodeAt(2))), "*logevent.NeighborUp"},
		{rec(auditlog.KindNeighborDown, auditlog.FNode("neighbor", addr.NodeAt(2))), "*logevent.NeighborDown"},
		{rec(auditlog.KindTwoHopUp, auditlog.FNode("via", addr.NodeAt(2)), auditlog.FNode("twohop", addr.NodeAt(3))), "*logevent.TwoHopUp"},
		{rec(auditlog.KindTwoHopDown, auditlog.FNode("via", addr.NodeAt(2)), auditlog.FNode("twohop", addr.NodeAt(3))), "*logevent.TwoHopDown"},
		{rec(auditlog.KindMPRSet, auditlog.FNodes("added", []addr.Node{addr.NodeAt(2)}),
			auditlog.FNodes("removed", nil), auditlog.FNodes("mprs", []addr.Node{addr.NodeAt(2)})), "*logevent.MPRSetChanged"},
		{rec(auditlog.KindMPRSelector, auditlog.FNodes("selectors", []addr.Node{addr.NodeAt(5)})), "*logevent.MPRSelectorChanged"},
		{rec(auditlog.KindBadPacket, auditlog.FNode("from", addr.NodeAt(2)), auditlog.F("reason", "truncated")), "*logevent.BadPacket"},
	}
	for _, tt := range tests {
		ev, err := Parse(line(tt.rec))
		if err != nil {
			t.Errorf("Parse(%s): %v", tt.rec.Kind, err)
			continue
		}
		if got := typeName(ev); got != tt.want {
			t.Errorf("Parse(%s) = %s, want %s", tt.rec.Kind, got, tt.want)
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *HelloSent:
		return "*logevent.HelloSent"
	case *HelloReceived:
		return "*logevent.HelloReceived"
	case *TCReceived:
		return "*logevent.TCReceived"
	case *TCSent:
		return "*logevent.TCSent"
	case *TCForwarded:
		return "*logevent.TCForwarded"
	case *MessageDropped:
		return "*logevent.MessageDropped"
	case *NeighborUp:
		return "*logevent.NeighborUp"
	case *NeighborDown:
		return "*logevent.NeighborDown"
	case *TwoHopUp:
		return "*logevent.TwoHopUp"
	case *TwoHopDown:
		return "*logevent.TwoHopDown"
	case *MPRSetChanged:
		return "*logevent.MPRSetChanged"
	case *MPRSelectorChanged:
		return "*logevent.MPRSelectorChanged"
	case *BadPacket:
		return "*logevent.BadPacket"
	default:
		return "unknown"
	}
}

func TestParseMissingRequiredField(t *testing.T) {
	for _, r := range []auditlog.Record{
		rec(auditlog.KindHelloRx), // no from
		rec(auditlog.KindTCRx),    // no orig
		rec(auditlog.KindTCFwd, auditlog.FNode("orig", addr.NodeAt(1))), // no sender
		rec(auditlog.KindNeighborUp),                                    // no neighbor
		rec(auditlog.KindTwoHopUp, auditlog.FNode("via", addr.NodeAt(2))),
		rec(auditlog.KindMsgDrop),
	} {
		if _, err := Parse(line(r)); err == nil {
			t.Errorf("Parse(%s with missing fields) succeeded", r.Kind)
		}
	}
}

func TestParseUnknownKind(t *testing.T) {
	if _, err := Parse(line(rec(auditlog.Kind("WEIRD")))); err == nil {
		t.Error("unknown kind parsed")
	}
}

// TestParseAll parses every line of a buffer the way the detector's scan
// does: an unparseable line is skipped and counted, not fatal.
func TestParseAll(t *testing.T) {
	var b auditlog.Buffer
	b.Append(rec(auditlog.KindHelloRx, auditlog.FNode("from", addr.NodeAt(2))))
	b.Append(rec(auditlog.Kind("WEIRD")))
	b.Append(rec(auditlog.KindNeighborUp, auditlog.FNode("neighbor", addr.NodeAt(2))))
	var events []Event
	skipped := 0
	c := auditlog.NewCursor(&b)
	for l, ok := c.Next(); ok; l, ok = c.Next() {
		ev, err := Parse(l)
		if err != nil {
			skipped++
			continue
		}
		events = append(events, ev)
	}
	if len(events) != 2 || skipped != 1 {
		t.Errorf("parsed %d events, %d skipped", len(events), skipped)
	}
}

func TestLogLineRoundTripThroughText(t *testing.T) {
	// The full pipeline: record -> text line -> record -> event.
	orig := rec(auditlog.KindMPRSet,
		auditlog.FNodes("added", []addr.Node{addr.NodeAt(9)}),
		auditlog.FNodes("removed", []addr.Node{addr.NodeAt(4)}),
		auditlog.FNodes("mprs", []addr.Node{addr.NodeAt(2), addr.NodeAt(9)}),
	)
	back, err := auditlog.ParseLine(orig.String())
	if err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	ev, err := Parse(line(back))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m, ok := ev.(*MPRSetChanged)
	if !ok {
		t.Fatalf("type %T", ev)
	}
	if len(m.Added) != 1 || m.Added[0] != addr.NodeAt(9) || len(m.MPRs) != 2 {
		t.Errorf("event = %+v", m)
	}
}
