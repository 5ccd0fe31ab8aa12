package signature

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
)

// self is the node whose log the tests match.
var self = addr.NodeAt(1)

func rec(at time.Duration, kind auditlog.Kind, fields ...auditlog.Field) auditlog.Record {
	return auditlog.Record{T: at, Node: self, Kind: kind, Fields: fields}
}

func tcRx(at time.Duration, orig addr.Node) auditlog.Record {
	return rec(at, auditlog.KindTCRx, auditlog.FNode("orig", orig), auditlog.FInt("ansn", 1),
		auditlog.FNodes("adv", []addr.Node{self}))
}

func tcTx(at time.Duration) auditlog.Record {
	return rec(at, auditlog.KindTCTx, auditlog.FInt("ansn", 1), auditlog.FNodes("adv", nil))
}

func drop(at time.Duration, from addr.Node, reason string) auditlog.Record {
	return rec(at, auditlog.KindMsgDrop, auditlog.FNode("from", from), auditlog.FNode("orig", from),
		auditlog.F("reason", reason))
}

func mprSet(at time.Duration, added, removed []addr.Node) auditlog.Record {
	return rec(at, auditlog.KindMPRSet, auditlog.FNodes("added", added),
		auditlog.FNodes("removed", removed), auditlog.FNodes("mprs", added))
}

// observe stores r as a node's daemon would and matches its line.
func observe(m *Matcher, r auditlog.Record) []Alert {
	var b auditlog.Buffer
	b.Append(r)
	l, _ := b.LineAt(0)
	return m.Observe(nil, l)
}

func TestThresholdRuleFiresAtCount(t *testing.T) {
	m := NewMatcher()
	orig := addr.NodeAt(5)
	for i := range stormCount - 1 {
		if got := observe(m, tcRx(time.Duration(i)*100*time.Millisecond, orig)); len(got) != 0 {
			t.Fatalf("fired after %d messages: %+v", i+1, got)
		}
	}
	got := observe(m, tcRx(2*time.Second, orig))
	want := Alert{Rule: RuleStorm, Subject: orig, At: 2 * time.Second, Detail: "threshold reached"}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("at threshold: %+v, want %+v", got, want)
	}
}

func TestThresholdRuleWindowEviction(t *testing.T) {
	m := NewMatcher()
	orig := addr.NodeAt(5)
	observe(m, tcRx(0, orig))
	for range stormCount - 2 {
		observe(m, tcRx(time.Second, orig))
	}
	// The count is reached only by the first message, which is outside
	// the window of this one and leaves it.
	if got := observe(m, tcRx(stormWindow+time.Second/2, orig)); len(got) != 0 {
		t.Fatalf("fired across window boundary: %+v", got)
	}
	// A time exactly at the window's edge stays in it.
	if got := observe(m, tcRx(stormWindow+time.Second, orig)); len(got) != 1 {
		t.Fatalf("did not fire: %+v", got)
	}
}

func TestThresholdRulePerSubject(t *testing.T) {
	m := NewMatcher()
	x, y := addr.NodeAt(5), addr.NodeAt(6)
	for i := range stormCount - 1 {
		at := time.Duration(i) * 100 * time.Millisecond
		// HELLOs and TCs from one originator share its window.
		observe(m, rec(at, auditlog.KindHelloRx, auditlog.FNode("from", x)))
		observe(m, tcRx(at, y))
	}
	got := observe(m, tcRx(2*time.Second, x))
	if len(got) != 1 || got[0].Subject != x {
		t.Fatalf("per-subject count broken: %+v", got)
	}
	if got := observe(m, tcRx(2*time.Second, addr.NodeAt(7))); len(got) != 0 {
		t.Fatalf("subjects mixed: %+v", got)
	}
}

func TestThresholdResetsAfterAlert(t *testing.T) {
	m := NewMatcher()
	from := addr.NodeAt(5)
	for i := range replayCount {
		observe(m, drop(time.Duration(i)*time.Second, from, "stale"))
	}
	// The alert emptied the window: one more stale drop does not
	// immediately re-alert.
	if got := observe(m, drop(replayCount*time.Second, from, "stale")); len(got) != 0 {
		t.Fatalf("re-alerted immediately: %+v", got)
	}
}

func TestMPRReplacedRule(t *testing.T) {
	m := NewMatcher()
	// Pure addition (initial selection): no alert.
	if got := observe(m, mprSet(time.Second, []addr.Node{addr.NodeAt(2)}, nil)); len(got) != 0 {
		t.Fatalf("alerted on initial MPR selection: %+v", got)
	}
	// Replacement: alert naming the first replacing MPR.
	got := observe(m, mprSet(2*time.Second, []addr.Node{addr.NodeAt(9), addr.NodeAt(8)}, []addr.Node{addr.NodeAt(2)}))
	want := Alert{Rule: RuleMPRReplaced, Subject: addr.NodeAt(9), At: 2 * time.Second, Detail: "sequence complete"}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("alert = %+v, want %+v", got, want)
	}
}

func TestReplayRule(t *testing.T) {
	m := NewMatcher()
	from := addr.NodeAt(7)
	for i := range replayCount - 1 {
		observe(m, drop(time.Duration(i)*time.Second, from, "stale"))
	}
	// Other drop reasons do not count.
	for _, reason := range []string{"dup", "own", "nonsym"} {
		if got := observe(m, drop(5*time.Second, from, reason)); len(got) != 0 {
			t.Fatalf("%s drop counted: %+v", reason, got)
		}
	}
	got := observe(m, drop(replayWindow, from, "stale"))
	if len(got) != 1 || got[0].Rule != RuleReplay || got[0].Subject != from {
		t.Fatalf("replay rule: %+v", got)
	}
}

func TestDroppedRelayRule(t *testing.T) {
	m := NewMatcher()
	observe(m, tcTx(0))
	// Echo arrives in time: no alert at the deadline.
	observe(m, drop(3*time.Second, addr.NodeAt(2), "own"))
	if got := m.Tick(nil, 20*time.Second); len(got) != 0 {
		t.Fatalf("alerted despite echo: %+v", got)
	}

	// No echo: alert once the deadline of the earliest unechoed TC
	// passes; a later TC does not push it back.
	observe(m, tcTx(30*time.Second))
	observe(m, tcTx(40*time.Second))
	if got := m.Tick(nil, 30*time.Second+echoDeadline-time.Millisecond); len(got) != 0 {
		t.Fatalf("alerted before deadline: %+v", got)
	}
	got := m.Tick(nil, 45*time.Second)
	want := Alert{Rule: RuleDroppedRelay, Subject: self, At: 45 * time.Second, Detail: "expected event absent"}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("alert = %+v, want %+v", got, want)
	}
	// One-shot: no repeat alert.
	if got := m.Tick(nil, 60*time.Second); len(got) != 0 {
		t.Fatalf("repeated alert: %+v", got)
	}
}

func TestFlappingRule(t *testing.T) {
	m := NewMatcher()
	nb := addr.NodeAt(3)
	var got []Alert
	for i := range flapCount {
		kind := auditlog.KindNeighborUp
		if i%2 == 1 {
			kind = auditlog.KindNeighborDown
		}
		got = observe(m, rec(time.Duration(i)*time.Second, kind, auditlog.FNode("neighbor", nb)))
		if i < flapCount-1 && len(got) != 0 {
			t.Fatalf("fired after %d transitions: %+v", i+1, got)
		}
	}
	if len(got) != 1 || got[0].Rule != RuleFlappingLink || got[0].Subject != nb {
		t.Fatalf("flapping not detected: %+v", got)
	}
}

func TestOmissionRule(t *testing.T) {
	suspect, victim := addr.NodeAt(9), addr.NodeAt(2)
	hello := rec(time.Second, auditlog.KindHelloRx, auditlog.FNode("from", victim),
		auditlog.FNodes("sym", []addr.Node{self, suspect}))
	lost := func(at time.Duration) auditlog.Record {
		return rec(at, auditlog.KindTwoHopDown, auditlog.FNode("via", suspect), auditlog.FNode("twohop", victim))
	}

	// The victim advertised the suspect within the window of the 2-hop
	// loss: the alert names the suspect and the dropped endpoint.
	m := NewMatcher()
	observe(m, hello)
	got := observe(m, lost(time.Second+omissionWindow))
	want := Alert{Rule: RuleOmission, Subject: suspect, At: time.Second + omissionWindow,
		Detail: "2-hop link lost while endpoint still advertised the suspect", Endpoint: victim}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("omission alert = %+v, want %+v", got, want)
	}

	// Outside the window the advertisement is stale: that is ordinary
	// link loss, not an omission.
	m = NewMatcher()
	observe(m, hello)
	if got := observe(m, lost(30*time.Second)); len(got) != 0 {
		t.Fatalf("stale advertisement alerted: %+v", got)
	}

	// Never-advertised pair: no alert.
	if got := observe(NewMatcher(), lost(2*time.Second)); len(got) != 0 {
		t.Fatalf("unadvertised pair alerted: %+v", got)
	}
}

func TestMPRAddedRuleWarmup(t *testing.T) {
	m := NewMatcher()
	added := []addr.Node{addr.NodeAt(9)}
	// The first line of any kind starts the warm-up, even one no
	// signature reads.
	observe(m, rec(time.Second, auditlog.KindHelloTx, auditlog.FNodes("sym", nil)))
	if got := observe(m, mprSet(10*time.Second, added, nil)); len(got) != 0 {
		t.Fatalf("alerted during warmup: %+v", got)
	}
	if got := observe(m, mprSet(time.Second+mprWarmup-time.Millisecond, added, nil)); len(got) != 0 {
		t.Fatalf("alerted during warmup: %+v", got)
	}
	got := observe(m, mprSet(time.Second+mprWarmup, added, nil))
	if len(got) != 1 || got[0].Subject != addr.NodeAt(9) || got[0].Rule != RuleMPRAdded {
		t.Fatalf("post-warmup alert = %+v", got)
	}
}

// TestMPRSetAlertOrder: one MPR_SET line raises its replacement alert
// before one addition alert per added MPR, in the line's order.
func TestMPRSetAlertOrder(t *testing.T) {
	m := NewMatcher()
	observe(m, rec(0, auditlog.KindBadPacket))
	got := observe(m, mprSet(mprWarmup, []addr.Node{addr.NodeAt(4), addr.NodeAt(3)}, []addr.Node{addr.NodeAt(2)}))
	want := []struct {
		rule    string
		subject addr.Node
	}{{RuleMPRReplaced, addr.NodeAt(4)}, {RuleMPRAdded, addr.NodeAt(4)}, {RuleMPRAdded, addr.NodeAt(3)}}
	if len(got) != len(want) {
		t.Fatalf("alerts = %+v", got)
	}
	for i, w := range want {
		if got[i].Rule != w.rule || got[i].Subject != w.subject {
			t.Fatalf("alert %d = %+v, want %s about %v", i, got[i], w.rule, w.subject)
		}
	}
}

// TestUnknownKindSeenByNoSignature: a line of an unknown kind neither
// alerts nor starts the warm-up.
func TestUnknownKindSeenByNoSignature(t *testing.T) {
	checkSeenByNoSignature(t, rec(0, "WEIRD"), rec(0, "HELLO_TX2"))
}

// TestMissingFieldSeenByNoSignature: a line whose fields a signature would
// read are missing or fail to parse neither alerts nor starts the warm-up,
// and a malformed TC_RX does not count towards a storm.
func TestMissingFieldSeenByNoSignature(t *testing.T) {
	checkSeenByNoSignature(t,
		rec(0, auditlog.KindHelloTx, auditlog.F("sym", "10.0.0.2,")),
		rec(0, auditlog.KindTCFwd, auditlog.FNode("orig", addr.NodeAt(3))), // no sender
		rec(0, auditlog.KindTwoHopUp, auditlog.FNode("via", addr.NodeAt(2))),
		rec(0, auditlog.KindMPRSelector, auditlog.F("selectors", "garbage")),
		rec(0, auditlog.KindMPRSet, auditlog.FNodes("added", []addr.Node{addr.NodeAt(4)}),
			auditlog.FNodes("removed", []addr.Node{addr.NodeAt(2)}), auditlog.F("mprs", "10.0.0.300")),
		rec(0, auditlog.KindTCTx, auditlog.F("adv", "*,x")),
	)
	m := NewMatcher()
	for i := range stormCount {
		bad := rec(time.Duration(i), auditlog.KindTCRx, auditlog.FNode("orig", addr.NodeAt(5)),
			auditlog.F("adv", "garbage"))
		if got := observe(m, bad); len(got) != 0 {
			t.Fatalf("malformed TC_RX counted: %+v", got)
		}
	}
}

// checkSeenByNoSignature feeds bad to a fresh matcher and fails if any of
// them alerts, arms relay-drop, or starts the MPR warm-up.
func checkSeenByNoSignature(t *testing.T, bad ...auditlog.Record) {
	t.Helper()
	m := NewMatcher()
	for _, r := range bad {
		if got := observe(m, r); len(got) != 0 {
			t.Fatalf("%s line alerted: %+v", r.Kind, got)
		}
	}
	if got := m.Tick(nil, time.Hour); len(got) != 0 {
		t.Fatalf("malformed line armed relay-drop: %+v", got)
	}
	// The warm-up starts here, at the first well-formed line.
	observe(m, rec(mprWarmup, auditlog.KindBadPacket))
	if got := observe(m, mprSet(mprWarmup+time.Second, []addr.Node{addr.NodeAt(4)}, nil)); len(got) != 0 {
		t.Fatalf("warm-up started on a malformed line: %+v", got)
	}
}

func TestEngineFeedsAllRules(t *testing.T) {
	m := NewMatcher()
	var alerts []Alert
	// A storm: 12 TCs in 6 seconds from one originator.
	for i := range 12 {
		alerts = append(alerts, observe(m, tcRx(time.Duration(i)*500*time.Millisecond, addr.NodeAt(9)))...)
	}
	alerts = m.Tick(alerts, 6*time.Second)
	if len(alerts) != 1 || alerts[0].Rule != RuleStorm || alerts[0].Subject != addr.NodeAt(9) {
		t.Errorf("storm not flagged; alerts = %+v", alerts)
	}
}

func TestEngineQuietOnNormalTraffic(t *testing.T) {
	m := NewMatcher()
	var alerts []Alert
	// Normal-rate traffic: one TC per origin per 5s, HELLOs every 2s,
	// each TC_TX echoed promptly.
	for s := 0; s < 60; s += 5 {
		at := time.Duration(s) * time.Second
		for _, r := range []auditlog.Record{
			tcRx(at, addr.NodeAt(2)),
			rec(at, auditlog.KindHelloRx, auditlog.FNode("from", addr.NodeAt(2)),
				auditlog.FNodes("sym", []addr.Node{self})),
			tcTx(at),
			drop(at+time.Second, addr.NodeAt(2), "own"),
			drop(at+time.Second, addr.NodeAt(3), "dup"),
		} {
			alerts = append(alerts, observe(m, r)...)
		}
		alerts = m.Tick(alerts, at+2*time.Second)
	}
	if len(alerts) != 0 {
		t.Errorf("false positives on normal traffic: %+v", alerts)
	}
}
