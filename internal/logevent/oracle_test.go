package logevent

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
)

// parseRecord is the Record-based parser the line parser replaced, kept
// as the oracle Parse must agree with on every line.
func parseRecord(r auditlog.Record) (Event, error) {
	base := Base{At: r.T, Node: r.Node, Kind: r.Kind}
	switch r.Kind {
	case auditlog.KindHelloRx:
		from, err := r.NodeField("from")
		if err != nil {
			return nil, err
		}
		sym, err := r.NodesField("sym")
		if err != nil {
			return nil, err
		}
		will, _ := r.IntField("will")
		return &HelloReceived{Base: base, From: from, SymNeighbors: sym, Willingness: will}, nil

	case auditlog.KindHelloTx:
		sym, err := r.NodesField("sym")
		if err != nil {
			return nil, err
		}
		return &HelloSent{Base: base, SymNeighbors: sym}, nil

	case auditlog.KindTCRx:
		orig, err := r.NodeField("orig")
		if err != nil {
			return nil, err
		}
		adv, err := r.NodesField("adv")
		if err != nil {
			return nil, err
		}
		ansn, _ := r.IntField("ansn")
		return &TCReceived{Base: base, Originator: orig, ANSN: ansn, Advertised: adv}, nil

	case auditlog.KindTCTx:
		adv, err := r.NodesField("adv")
		if err != nil {
			return nil, err
		}
		ansn, _ := r.IntField("ansn")
		return &TCSent{Base: base, ANSN: ansn, Advertised: adv}, nil

	case auditlog.KindTCFwd:
		orig, err := r.NodeField("orig")
		if err != nil {
			return nil, err
		}
		sender, err := r.NodeField("sender")
		if err != nil {
			return nil, err
		}
		return &TCForwarded{Base: base, Originator: orig, Sender: sender}, nil

	case auditlog.KindMsgDrop:
		from, err := r.NodeField("from")
		if err != nil {
			return nil, err
		}
		reason, _ := r.Get("reason")
		return &MessageDropped{Base: base, From: from, Reason: reason}, nil

	case auditlog.KindNeighborUp, auditlog.KindNeighborDown:
		n, err := r.NodeField("neighbor")
		if err != nil {
			return nil, err
		}
		if r.Kind == auditlog.KindNeighborUp {
			return &NeighborUp{Base: base, Neighbor: n}, nil
		}
		return &NeighborDown{Base: base, Neighbor: n}, nil

	case auditlog.KindTwoHopUp, auditlog.KindTwoHopDown:
		via, err := r.NodeField("via")
		if err != nil {
			return nil, err
		}
		th, err := r.NodeField("twohop")
		if err != nil {
			return nil, err
		}
		if r.Kind == auditlog.KindTwoHopUp {
			return &TwoHopUp{Base: base, Via: via, TwoHop: th}, nil
		}
		return &TwoHopDown{Base: base, Via: via, TwoHop: th}, nil

	case auditlog.KindMPRSet:
		added, err := r.NodesField("added")
		if err != nil {
			return nil, err
		}
		removed, err := r.NodesField("removed")
		if err != nil {
			return nil, err
		}
		mprs, err := r.NodesField("mprs")
		if err != nil {
			return nil, err
		}
		return &MPRSetChanged{Base: base, Added: added, Removed: removed, MPRs: mprs}, nil

	case auditlog.KindMPRSelector:
		sel, err := r.NodesField("selectors")
		if err != nil {
			return nil, err
		}
		return &MPRSelectorChanged{Base: base, Selectors: sel}, nil

	case auditlog.KindBadPacket:
		from, _ := r.NodeField("from")
		reason, _ := r.Get("reason")
		return &BadPacket{Base: base, From: from, Reason: reason}, nil

	default:
		return nil, fmt.Errorf("logevent: unknown record kind %q", r.Kind)
	}
}

// checkAgainstOracle stores r and requires the line parser's result to
// equal the oracle's on the decoded record: the same event, or the same
// rejection.
func checkAgainstOracle(t *testing.T, r auditlog.Record) {
	t.Helper()
	l := line(r)
	if l.Text != r.String() {
		t.Fatalf("stored line %q, want %q", l.Text, r.String())
	}
	got, gotErr := Parse(l)
	want, wantErr := parseRecord(r)
	if (gotErr == nil) != (wantErr == nil) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("line %q: error %v, oracle %v", l.Text, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q: event %+v, oracle %+v", l.Text, got, want)
	}
}

// TestLineParseMatchesOracle drives every kind, with well-formed,
// missing, malformed and hostile fields, through both parsers.
func TestLineParseMatchesOracle(t *testing.T) {
	kinds := []auditlog.Kind{
		auditlog.KindHelloTx, auditlog.KindHelloRx, auditlog.KindTCTx, auditlog.KindTCRx,
		auditlog.KindTCFwd, auditlog.KindMsgDrop, auditlog.KindNeighborUp, auditlog.KindNeighborDown,
		auditlog.KindTwoHopUp, auditlog.KindTwoHopDown, auditlog.KindMPRSet, auditlog.KindMPRSelector,
		auditlog.KindBadPacket, "WEIRD", "HELLO RX",
	}
	keys := []string{"from", "sym", "will", "orig", "adv", "ansn", "sender", "reason",
		"neighbor", "via", "twohop", "added", "removed", "mprs", "selectors", "kind", "", "fr om"}
	values := []string{"10.0.0.2", "10.0.0.3,10.0.0.4", "", "7", "-3", "*", "dup",
		"garbage", "10.0.0.1,", "a b=c%", "10.0.0.300", "1e3"}
	rng := rand.New(rand.NewSource(1)) //nolint:gosec // test determinism
	for i := 0; i < 5000; i++ {
		r := auditlog.Record{
			T:    time.Duration(rng.Int63n(1e12) - 1e9),
			Node: addr.Node(rng.Uint32()),
			Kind: kinds[rng.Intn(len(kinds))],
		}
		for n := rng.Intn(5); n > 0; n-- {
			r.Fields = append(r.Fields, auditlog.F(keys[rng.Intn(len(keys))], values[rng.Intn(len(values))]))
		}
		checkAgainstOracle(t, r)
	}
}

// FuzzLineEvent: for any line ParseLine accepts, storing the decoded
// record and parsing its stored line must give the oracle's event or
// its rejection, and never panic.
func FuzzLineEvent(f *testing.F) {
	f.Add("t=2.500s node=10.0.0.1 kind=HELLO_RX from=10.0.0.2 sym=10.0.0.3,10.0.0.4 will=3")
	f.Add("t=0.000s node=10.0.0.1 kind=MPR_SET added= removed= mprs=")
	f.Add("t=1.000s  node=10.0.0.1\tkind=TC_RX orig=10.0.0.9 adv=10.0.0.1,,10.0.0.2 ansn=x")
	f.Add("t=-0.001s node=* kind=MSG%5FDROP from=10.0.0.2 reason=a%20b from=10.0.0.3")
	f.Add("t=1.5s node=0.0.0.0 kind=BAD_PACKET =")
	f.Fuzz(func(t *testing.T, text string) {
		r, err := auditlog.ParseLine(text)
		if err != nil {
			return // a buffer only ever holds lines that decode
		}
		checkAgainstOracle(t, r)
	})
}
