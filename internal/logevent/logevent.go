// Package logevent converts audit-log lines into the typed events that
// the signature matcher and the detector consume.
//
// This is the boundary the paper draws in §III: the routing daemon writes
// logs; the IDS parses them. Nothing above this package touches routing
// internals directly.
package logevent

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
)

// Event is a typed, parsed audit-log event.
type Event interface {
	// When returns the virtual time the event was logged.
	When() time.Duration
	// Observer returns the node whose log produced the event.
	Observer() addr.Node
	// EventKind returns the audit-log kind the event was parsed from.
	EventKind() auditlog.Kind
}

// Base carries the fields common to all events.
type Base struct {
	At   time.Duration
	Node addr.Node
	Kind auditlog.Kind
}

// When implements Event.
func (b Base) When() time.Duration { return b.At }

// Observer implements Event.
func (b Base) Observer() addr.Node { return b.Node }

// EventKind implements Event.
func (b Base) EventKind() auditlog.Kind { return b.Kind }

// HelloReceived is logged when a HELLO arrives: the advertised symmetric
// neighbor set is the input to the link-spoofing signatures (Expr. 1–3).
type HelloReceived struct {
	Base
	From         addr.Node   // HELLO originator
	SymNeighbors []addr.Node // the NS'(I) the originator advertised
	Willingness  int
}

// HelloSent is logged when the local daemon emits a HELLO.
type HelloSent struct {
	Base
	SymNeighbors []addr.Node
}

// TCReceived is logged when a TC message is processed.
type TCReceived struct {
	Base
	Originator addr.Node
	ANSN       int
	Advertised []addr.Node
}

// TCSent is logged when the local daemon originates a TC.
type TCSent struct {
	Base
	ANSN       int
	Advertised []addr.Node
}

// TCForwarded is logged when the daemon relays a TC as an MPR. Its absence
// where expected is the raw material of drop-attack (E2) detection.
type TCForwarded struct {
	Base
	Originator addr.Node
	Sender     addr.Node // link-layer previous hop
}

// MessageDropped is logged when a message is discarded (duplicate, TTL,
// self-origin, malformed).
type MessageDropped struct {
	Base
	From   addr.Node
	Reason string
}

// NeighborUp / NeighborDown track the symmetric 1-hop neighborhood.
type NeighborUp struct {
	Base
	Neighbor addr.Node
}

// NeighborDown is the loss counterpart of NeighborUp.
type NeighborDown struct {
	Base
	Neighbor addr.Node
}

// TwoHopUp / TwoHopDown track the 2-hop neighborhood: Via is the 1-hop
// neighbor that advertised TwoHop.
type TwoHopUp struct {
	Base
	Via    addr.Node
	TwoHop addr.Node
}

// TwoHopDown is the loss counterpart of TwoHopUp.
type TwoHopDown struct {
	Base
	Via    addr.Node
	TwoHop addr.Node
}

// MPRSetChanged is logged when the local MPR selection changes. An MPR
// being replaced is evidence E1, the trigger of the paper's investigation.
type MPRSetChanged struct {
	Base
	Added   []addr.Node
	Removed []addr.Node
	MPRs    []addr.Node // the full new set
}

// MPRSelectorChanged is logged when the set of neighbors that selected the
// local node as MPR changes.
type MPRSelectorChanged struct {
	Base
	Selectors []addr.Node
}

// BadPacket is logged when a packet fails to decode.
type BadPacket struct {
	Base
	From   addr.Node
	Reason string
}

// Parse converts one audit-log line into its typed event. It reads the
// line in place (auditlog.Line) — the detector never decodes a Record.
func Parse(l auditlog.Line) (Event, error) {
	kind := l.Kind()
	base := Base{At: l.T, Node: l.Node, Kind: kind}
	switch kind {
	case auditlog.KindHelloRx:
		from, err := l.NodeField("from")
		if err != nil {
			return nil, err
		}
		sym, err := l.NodesField("sym")
		if err != nil {
			return nil, err
		}
		will, _ := l.IntField("will")
		return &HelloReceived{Base: base, From: from, SymNeighbors: sym, Willingness: will}, nil

	case auditlog.KindHelloTx:
		sym, err := l.NodesField("sym")
		if err != nil {
			return nil, err
		}
		return &HelloSent{Base: base, SymNeighbors: sym}, nil

	case auditlog.KindTCRx:
		orig, err := l.NodeField("orig")
		if err != nil {
			return nil, err
		}
		adv, err := l.NodesField("adv")
		if err != nil {
			return nil, err
		}
		ansn, _ := l.IntField("ansn")
		return &TCReceived{Base: base, Originator: orig, ANSN: ansn, Advertised: adv}, nil

	case auditlog.KindTCTx:
		adv, err := l.NodesField("adv")
		if err != nil {
			return nil, err
		}
		ansn, _ := l.IntField("ansn")
		return &TCSent{Base: base, ANSN: ansn, Advertised: adv}, nil

	case auditlog.KindTCFwd:
		orig, err := l.NodeField("orig")
		if err != nil {
			return nil, err
		}
		sender, err := l.NodeField("sender")
		if err != nil {
			return nil, err
		}
		return &TCForwarded{Base: base, Originator: orig, Sender: sender}, nil

	case auditlog.KindMsgDrop:
		from, err := l.NodeField("from")
		if err != nil {
			return nil, err
		}
		reason, _ := l.Get("reason")
		return &MessageDropped{Base: base, From: from, Reason: reason}, nil

	case auditlog.KindNeighborUp, auditlog.KindNeighborDown:
		n, err := l.NodeField("neighbor")
		if err != nil {
			return nil, err
		}
		if kind == auditlog.KindNeighborUp {
			return &NeighborUp{Base: base, Neighbor: n}, nil
		}
		return &NeighborDown{Base: base, Neighbor: n}, nil

	case auditlog.KindTwoHopUp, auditlog.KindTwoHopDown:
		via, err := l.NodeField("via")
		if err != nil {
			return nil, err
		}
		th, err := l.NodeField("twohop")
		if err != nil {
			return nil, err
		}
		if kind == auditlog.KindTwoHopUp {
			return &TwoHopUp{Base: base, Via: via, TwoHop: th}, nil
		}
		return &TwoHopDown{Base: base, Via: via, TwoHop: th}, nil

	case auditlog.KindMPRSet:
		added, err := l.NodesField("added")
		if err != nil {
			return nil, err
		}
		removed, err := l.NodesField("removed")
		if err != nil {
			return nil, err
		}
		mprs, err := l.NodesField("mprs")
		if err != nil {
			return nil, err
		}
		return &MPRSetChanged{Base: base, Added: added, Removed: removed, MPRs: mprs}, nil

	case auditlog.KindMPRSelector:
		sel, err := l.NodesField("selectors")
		if err != nil {
			return nil, err
		}
		return &MPRSelectorChanged{Base: base, Selectors: sel}, nil

	case auditlog.KindBadPacket:
		from, _ := l.NodeField("from")
		reason, _ := l.Get("reason")
		return &BadPacket{Base: base, From: from, Reason: reason}, nil

	default:
		return nil, fmt.Errorf("logevent: unknown record kind %q", kind)
	}
}
