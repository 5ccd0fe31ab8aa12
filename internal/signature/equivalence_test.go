package signature

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
)

// scan is one detector scan: the lines it reads and the clock it ends at.
type scan struct {
	lines []auditlog.Line
	now   time.Duration
}

// checkAgainstReference runs the same scans of one node's log through the
// reference engine and through a Matcher, and requires the same alerts in
// the same order. It returns the matcher's alerts.
func checkAgainstReference(t *testing.T, scans []scan) []Alert {
	t.Helper()
	eng := NewEngine(Catalog()...)
	m := NewMatcher()
	var all []Alert
	for i, sc := range scans {
		var events []Event
		var got []Alert
		for _, l := range sc.lines {
			if ev, err := Parse(l); err == nil {
				events = append(events, ev)
			}
			got = m.Observe(got, l)
		}
		got = m.Tick(got, sc.now)
		want := eng.Feed(events, sc.now)
		if len(got) != len(want) {
			t.Fatalf("scan %d (%d lines, now %v): %d alerts, reference %d:\n got  %+v\n want %+v",
				i, len(sc.lines), sc.now, len(got), len(want), got, want)
		}
		for j, w := range want {
			endpoint := addr.None
			if w.Rule == RuleOmission {
				endpoint = w.Events[0].(*TwoHopDown).TwoHop
			}
			g := got[j]
			if g.Rule != w.Rule || g.Subject != w.Subject || g.At != w.At || g.Detail != w.Detail || g.Endpoint != endpoint {
				t.Fatalf("scan %d alert %d = %+v, reference %+v (endpoint %v)", i, j, g, w, endpoint)
			}
		}
		all = append(all, got...)
	}
	return all
}

// Field shapes a random line can carry.
const (
	shapeNode = iota
	shapeNodes
	shapeInt
	shapeReason
)

type field struct {
	key   string
	shape int
}

// lineShapes lists, per kind, the fields its daemon logs, and two kinds
// no daemon logs.
var lineShapes = []struct {
	kind   auditlog.Kind
	fields []field
}{
	{auditlog.KindHelloRx, []field{{"from", shapeNode}, {"sym", shapeNodes}, {"will", shapeInt}}},
	{auditlog.KindHelloTx, []field{{"sym", shapeNodes}}},
	{auditlog.KindTCRx, []field{{"orig", shapeNode}, {"ansn", shapeInt}, {"adv", shapeNodes}}},
	{auditlog.KindTCTx, []field{{"ansn", shapeInt}, {"adv", shapeNodes}}},
	{auditlog.KindTCFwd, []field{{"orig", shapeNode}, {"sender", shapeNode}}},
	{auditlog.KindMsgDrop, []field{{"from", shapeNode}, {"orig", shapeNode}, {"reason", shapeReason}}},
	{auditlog.KindNeighborUp, []field{{"neighbor", shapeNode}}},
	{auditlog.KindNeighborDown, []field{{"neighbor", shapeNode}}},
	{auditlog.KindTwoHopUp, []field{{"via", shapeNode}, {"twohop", shapeNode}}},
	{auditlog.KindTwoHopDown, []field{{"via", shapeNode}, {"twohop", shapeNode}}},
	{auditlog.KindMPRSet, []field{{"added", shapeNodes}, {"removed", shapeNodes}, {"mprs", shapeNodes}}},
	{auditlog.KindMPRSelector, []field{{"selectors", shapeNodes}}},
	{auditlog.KindBadPacket, []field{{"from", shapeNode}, {"reason", shapeReason}}},
	{"WEIRD", []field{{"from", shapeNode}}},
	{"HELLO RX", []field{{"from", shapeNode}, {"sym", shapeNodes}}},
}

// hostile are values no well-formed field carries.
var hostile = []string{"", "garbage", "10.0.0.300", "10.0.0.2,", ",", "1e3", "a b=c%", "10.0.0.2,,10.0.0.3"}

// randomRecord draws one line of self's log: a few subjects, so bursts
// trip every threshold, and mostly well-formed fields with some missing
// or hostile ones.
func randomRecord(rng *rand.Rand, at time.Duration) auditlog.Record {
	pool := []addr.Node{self, addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4), addr.Broadcast}
	node := func() addr.Node { return pool[rng.Intn(len(pool))] }
	shape := lineShapes[rng.Intn(len(lineShapes))]
	r := auditlog.Record{T: at, Node: self, Kind: shape.kind}
	for _, f := range shape.fields {
		switch p := rng.Intn(20); {
		case p == 0:
			continue // missing
		case p == 1:
			r.Fields = append(r.Fields, auditlog.F(f.key, hostile[rng.Intn(len(hostile))]))
			continue
		}
		switch f.shape {
		case shapeNode:
			r.Fields = append(r.Fields, auditlog.FNode(f.key, node()))
		case shapeNodes:
			var ns []addr.Node
			for n := rng.Intn(4); n > 0; n-- {
				ns = append(ns, node())
			}
			r.Fields = append(r.Fields, auditlog.FNodes(f.key, ns))
		case shapeInt:
			r.Fields = append(r.Fields, auditlog.FInt(f.key, rng.Intn(100)))
		case shapeReason:
			reasons := []string{"stale", "stale", "own", "own", "dup", "nonsym", "truncated"}
			r.Fields = append(r.Fields, auditlog.F(f.key, reasons[rng.Intn(len(reasons))]))
		}
	}
	if rng.Intn(30) == 0 {
		r.Fields = append(r.Fields, auditlog.F(hostile[rng.Intn(len(hostile))], "10.0.0.2"))
	}
	return r
}

// TestMatcherMatchesReference feeds random logs, split into scans of
// random size, to the reference engine and the Matcher. The logs cover
// every kind, hostile and missing fields, bursts past every threshold,
// and clocks that jump ahead or step back.
func TestMatcherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1)) //nolint:gosec // test determinism
	fired := map[string]int{}
	for stream := 0; stream < 150; stream++ {
		var b auditlog.Buffer
		var scans []scan
		at := time.Duration(rng.Intn(600)) * 100 * time.Millisecond
		for len(scans) < 40 {
			sc := scan{}
			for n := rng.Intn(12); n > 0; n-- {
				// Steps on a 100 ms grid, so times land on window edges.
				switch p := rng.Intn(40); {
				case p == 0:
					at -= time.Duration(rng.Intn(20)) * 100 * time.Millisecond
				case p < 3:
					at += time.Duration(rng.Intn(300)) * 100 * time.Millisecond
				default:
					at += time.Duration(rng.Intn(4)) * 100 * time.Millisecond
				}
				// One line in ten comes as a burst of copies.
				r, copies := randomRecord(rng, at), 1
				if rng.Intn(10) == 0 {
					copies += rng.Intn(stormCount + 2)
				}
				for ; copies > 0; copies-- {
					b.Append(r)
					l, _ := b.LineAt(uint64(b.Len() - 1))
					sc.lines = append(sc.lines, l)
					at += time.Duration(rng.Intn(3)) * 100 * time.Millisecond
					r.T = at
				}
			}
			sc.now = at + time.Duration(rng.Intn(150))*100*time.Millisecond
			scans = append(scans, sc)
		}
		for _, a := range checkAgainstReference(t, scans) {
			fired[a.Rule]++
		}
	}
	t.Logf("alerts by rule: %v", fired)
	for _, rule := range []string{RuleMPRReplaced, RuleMPRAdded, RuleStorm, RuleReplay,
		RuleDroppedRelay, RuleFlappingLink, RuleOmission} {
		if fired[rule] == 0 {
			t.Errorf("no stream fired %s: %v", rule, fired)
		}
	}
}

// FuzzMatcher runs the reference comparison on fuzzer-made logs. The
// dump's lines that ParseLine accepts become self's log; a blank line
// ends a scan, whose clock is its last line's time plus a gap from gaps.
func FuzzMatcher(f *testing.F) {
	f.Add("t=2.500s node=10.0.0.1 kind=HELLO_RX from=10.0.0.2 sym=10.0.0.3,10.0.0.1 will=3\n"+
		"t=9.000s node=10.0.0.1 kind=TWOHOP_DOWN via=10.0.0.3 twohop=10.0.0.2", []byte{1})
	f.Add("t=0.000s node=10.0.0.1 kind=TC_TX ansn=1 adv=\n\n"+
		"t=1.000s node=10.0.0.1 kind=MSG_DROP from=10.0.0.2 reason=own\n"+
		"t=5.000s node=10.0.0.1 kind=TC_TX ansn=2 adv=10.0.0.2\n\n", []byte{10, 200})
	f.Add("t=1.000s node=10.0.0.1 kind=HELLO_TX sym=x\n"+
		"t=2.000s node=10.0.0.1 kind=MPR_SET added=10.0.0.4 removed= mprs=10.0.0.4\n"+
		"t=30.000s node=10.0.0.1 kind=MPR_SET added=10.0.0.5,10.0.0.6 removed=10.0.0.4 mprs=10.0.0.5", []byte{})
	f.Add(strings.Repeat("t=1.000s node=10.0.0.1 kind=MSG_DROP from=10.0.0.3 reason=stale\n", 4)+
		strings.Repeat("t=1.000s node=10.0.0.1 kind=NEIGHBOR_UP neighbor=10.0.0.2\n", 6)+
		strings.Repeat("t=1.000s node=10.0.0.1 kind=TC_RX orig=10.0.0.4 adv=,\n", 12), []byte{0})
	f.Add("t=-0.001s node=* kind=MSG%5FDROP from=10.0.0.2 reason=a%20b from=10.0.0.3\n"+
		"t=1.5s node=0.0.0.0 kind=BAD_PACKET =", []byte{3})
	f.Fuzz(func(t *testing.T, dump string, gaps []byte) {
		var b auditlog.Buffer
		var scans []scan
		var sc scan
		end := func() {
			if len(sc.lines) > 0 {
				gap := time.Duration(0)
				if len(gaps) > 0 {
					gap = time.Duration(gaps[len(scans)%len(gaps)]) * 100 * time.Millisecond
				}
				sc.now = sc.lines[len(sc.lines)-1].T + gap
				scans = append(scans, sc)
			}
			sc = scan{}
		}
		for _, text := range strings.Split(dump, "\n") {
			if strings.TrimSpace(text) == "" {
				end()
				continue
			}
			r, err := auditlog.ParseLine(text)
			if err != nil {
				continue // a buffer only ever holds lines that decode
			}
			r.Node = self // one matcher serves one node's log
			b.Append(r)
			l, _ := b.LineAt(uint64(b.Len() - 1))
			sc.lines = append(sc.lines, l)
		}
		end()
		checkAgainstReference(t, scans)
	})
}
