package signature

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/logevent"
)

func base(at time.Duration, kind auditlog.Kind) logevent.Base {
	return logevent.Base{At: at, Node: addr.NodeAt(1), Kind: kind}
}

func tcRx(at time.Duration, orig addr.Node) logevent.Event {
	return &logevent.TCReceived{Base: base(at, auditlog.KindTCRx), Originator: orig}
}

func staleDrop(at time.Duration, from addr.Node) logevent.Event {
	return &logevent.MessageDropped{Base: base(at, auditlog.KindMsgDrop), From: from, Reason: "stale"}
}

func TestThresholdRuleFiresAtCount(t *testing.T) {
	r := StormRule(3, 10*time.Second)
	orig := addr.NodeAt(5)
	if got := r.Observe(tcRx(1*time.Second, orig)); len(got) != 0 {
		t.Fatalf("fired after 1 event: %+v", got)
	}
	if got := r.Observe(tcRx(2*time.Second, orig)); len(got) != 0 {
		t.Fatalf("fired after 2 events: %+v", got)
	}
	got := r.Observe(tcRx(3*time.Second, orig))
	if len(got) != 1 {
		t.Fatalf("did not fire at threshold: %+v", got)
	}
	a := got[0]
	if a.Rule != RuleStorm || a.Subject != orig || len(a.Events) != 3 {
		t.Errorf("alert = %+v", a)
	}
}

func TestThresholdRuleWindowEviction(t *testing.T) {
	r := StormRule(3, 5*time.Second)
	orig := addr.NodeAt(5)
	r.Observe(tcRx(0, orig))
	r.Observe(tcRx(1*time.Second, orig))
	// Third event outside the window of the first: the first is evicted,
	// so no alert.
	if got := r.Observe(tcRx(7*time.Second, orig)); len(got) != 0 {
		t.Fatalf("fired across window boundary: %+v", got)
	}
	// Two more inside the window fire.
	r.Observe(tcRx(8*time.Second, orig))
	if got := r.Observe(tcRx(9*time.Second, orig)); len(got) != 1 {
		t.Fatalf("did not fire: %+v", got)
	}
}

func TestThresholdRulePerSubject(t *testing.T) {
	r := StormRule(3, 10*time.Second)
	r.Observe(tcRx(1*time.Second, addr.NodeAt(5)))
	r.Observe(tcRx(2*time.Second, addr.NodeAt(6)))
	r.Observe(tcRx(3*time.Second, addr.NodeAt(5)))
	if got := r.Observe(tcRx(4*time.Second, addr.NodeAt(6))); len(got) != 0 {
		t.Fatalf("subjects mixed: %+v", got)
	}
	if got := r.Observe(tcRx(5*time.Second, addr.NodeAt(5))); len(got) != 1 {
		t.Fatalf("per-subject count broken: %+v", got)
	}
}

func TestThresholdResetsAfterAlert(t *testing.T) {
	r := StormRule(2, 10*time.Second)
	orig := addr.NodeAt(5)
	r.Observe(tcRx(1*time.Second, orig))
	if got := r.Observe(tcRx(2*time.Second, orig)); len(got) != 1 {
		t.Fatal("no first alert")
	}
	// History reset: one more event does not immediately re-alert.
	if got := r.Observe(tcRx(3*time.Second, orig)); len(got) != 0 {
		t.Fatalf("re-alerted immediately: %+v", got)
	}
}

func TestSequenceRuleOrderAndSubject(t *testing.T) {
	// Two-step sequence: a stale drop from X followed by a TC from X.
	r := &SequenceRule{
		RuleName: "test-seq",
		Window:   10 * time.Second,
		Steps: []Predicate{
			func(ev logevent.Event) (addr.Node, bool) {
				if d, ok := ev.(*logevent.MessageDropped); ok && d.Reason == "stale" {
					return d.From, true
				}
				return addr.None, false
			},
			func(ev logevent.Event) (addr.Node, bool) {
				if tc, ok := ev.(*logevent.TCReceived); ok {
					return tc.Originator, true
				}
				return addr.None, false
			},
		},
	}
	x, y := addr.NodeAt(5), addr.NodeAt(6)

	// Wrong order: TC first matches step 1 only as a new start candidate.
	if got := r.Observe(tcRx(1*time.Second, x)); len(got) != 0 {
		t.Fatalf("fired on wrong order: %+v", got)
	}
	r.Observe(staleDrop(2*time.Second, x))
	// TC from a different subject must not complete x's sequence.
	if got := r.Observe(tcRx(3*time.Second, y)); len(got) != 0 {
		t.Fatalf("cross-subject completion: %+v", got)
	}
	got := r.Observe(tcRx(4*time.Second, x))
	if len(got) != 1 || got[0].Subject != x || len(got[0].Events) != 2 {
		t.Fatalf("sequence did not complete: %+v", got)
	}
}

func TestSequenceRuleWindowExpiry(t *testing.T) {
	r := &SequenceRule{
		RuleName: "test-seq",
		Window:   5 * time.Second,
		Steps: []Predicate{
			func(ev logevent.Event) (addr.Node, bool) {
				if d, ok := ev.(*logevent.MessageDropped); ok {
					return d.From, true
				}
				return addr.None, false
			},
			func(ev logevent.Event) (addr.Node, bool) {
				if tc, ok := ev.(*logevent.TCReceived); ok {
					return tc.Originator, true
				}
				return addr.None, false
			},
		},
	}
	x := addr.NodeAt(5)
	r.Observe(staleDrop(0, x))
	if got := r.Observe(tcRx(10*time.Second, x)); len(got) != 0 {
		t.Fatalf("completed outside window: %+v", got)
	}
}

func TestMPRReplacedRule(t *testing.T) {
	r := MPRReplacedRule()
	// Pure addition (initial selection): no alert.
	ev := &logevent.MPRSetChanged{
		Base:  base(time.Second, auditlog.KindMPRSet),
		Added: []addr.Node{addr.NodeAt(2)},
		MPRs:  []addr.Node{addr.NodeAt(2)},
	}
	if got := r.Observe(ev); len(got) != 0 {
		t.Fatalf("alerted on initial MPR selection: %+v", got)
	}
	// Replacement: alert naming the replacing MPR.
	ev2 := &logevent.MPRSetChanged{
		Base:    base(2*time.Second, auditlog.KindMPRSet),
		Added:   []addr.Node{addr.NodeAt(9)},
		Removed: []addr.Node{addr.NodeAt(2)},
		MPRs:    []addr.Node{addr.NodeAt(9)},
	}
	got := r.Observe(ev2)
	if len(got) != 1 || got[0].Subject != addr.NodeAt(9) || got[0].Rule != RuleMPRReplaced {
		t.Fatalf("alert = %+v", got)
	}
}

func TestReplayRule(t *testing.T) {
	r := ReplayRule(3, 30*time.Second)
	from := addr.NodeAt(7)
	r.Observe(staleDrop(1*time.Second, from))
	r.Observe(staleDrop(2*time.Second, from))
	// Non-stale drops must not count.
	r.Observe(&logevent.MessageDropped{
		Base: base(3*time.Second, auditlog.KindMsgDrop), From: from, Reason: "dup",
	})
	if got := r.Observe(staleDrop(4*time.Second, from)); len(got) != 1 {
		t.Fatalf("replay rule: %+v", got)
	}
}

func TestDroppedRelayRule(t *testing.T) {
	r := DroppedRelayRule(12 * time.Second)
	self := addr.NodeAt(1)
	sent := &logevent.TCSent{Base: base(0, auditlog.KindTCTx), ANSN: 1}
	r.Observe(sent)

	// Echo arrives in time: no alert at the deadline.
	echo := &logevent.MessageDropped{
		Base: base(3*time.Second, auditlog.KindMsgDrop), From: addr.NodeAt(2), Reason: "own",
	}
	r.Observe(echo)
	if got := r.Tick(20 * time.Second); len(got) != 0 {
		t.Fatalf("alerted despite echo: %+v", got)
	}

	// No echo: alert after the deadline.
	r.Observe(&logevent.TCSent{Base: base(30*time.Second, auditlog.KindTCTx), ANSN: 2})
	if got := r.Tick(35 * time.Second); len(got) != 0 {
		t.Fatalf("alerted before deadline: %+v", got)
	}
	got := r.Tick(45 * time.Second)
	if len(got) != 1 || got[0].Subject != self || got[0].Rule != RuleDroppedRelay {
		t.Fatalf("alert = %+v", got)
	}
	// One-shot: no repeat alert.
	if got := r.Tick(60 * time.Second); len(got) != 0 {
		t.Fatalf("repeated alert: %+v", got)
	}
}

func TestAbsenceRuleAlertsInSubjectOrder(t *testing.T) {
	// Eight subjects time out in the same tick; the alerts must come out
	// in ascending subject order, whatever the insertion order, on every
	// one of many fresh rules (map iteration order varies per map).
	subjects := []addr.Node{addr.NodeAt(5), addr.NodeAt(2), addr.NodeAt(8), addr.NodeAt(1),
		addr.NodeAt(7), addr.NodeAt(3), addr.NodeAt(6), addr.NodeAt(4)}
	for trial := range 20 {
		r := &AbsenceRule{
			RuleName: "absent",
			Deadline: time.Second,
			Trigger: func(ev logevent.Event) (addr.Node, bool) {
				return ev.(*logevent.TCReceived).Originator, true
			},
			Expected: func(logevent.Event) (addr.Node, bool) { return addr.None, false },
		}
		for _, s := range subjects {
			r.Observe(tcRx(0, s))
		}
		got := r.Tick(2 * time.Second)
		if len(got) != len(subjects) {
			t.Fatalf("trial %d: %d alerts, want %d", trial, len(got), len(subjects))
		}
		for i, a := range got {
			if a.Subject != addr.NodeAt(i+1) {
				t.Fatalf("trial %d: alert %d is about %v, want %v", trial, i, a.Subject, addr.NodeAt(i+1))
			}
		}
	}
}

func TestFlappingRule(t *testing.T) {
	r := FlappingRule(4, 30*time.Second)
	nb := addr.NodeAt(3)
	mk := func(at time.Duration, up bool) logevent.Event {
		if up {
			return &logevent.NeighborUp{Base: base(at, auditlog.KindNeighborUp), Neighbor: nb}
		}
		return &logevent.NeighborDown{Base: base(at, auditlog.KindNeighborDown), Neighbor: nb}
	}
	r.Observe(mk(1*time.Second, true))
	r.Observe(mk(2*time.Second, false))
	r.Observe(mk(3*time.Second, true))
	if got := r.Observe(mk(4*time.Second, false)); len(got) != 1 {
		t.Fatalf("flapping not detected: %+v", got)
	}
}

func TestOmissionRule(t *testing.T) {
	r := OmissionRule(10 * time.Second)
	suspect, victim := addr.NodeAt(9), addr.NodeAt(2)

	// Victim advertises the suspect at t=1s.
	r.Observe(&logevent.HelloReceived{
		Base: base(1*time.Second, auditlog.KindHelloRx),
		From: victim, SymNeighbors: []addr.Node{suspect},
	})
	// 2-hop (via suspect, of victim) lost at t=7s: within the window.
	got := r.Observe(&logevent.TwoHopDown{
		Base: base(7*time.Second, auditlog.KindTwoHopDown),
		Via:  suspect, TwoHop: victim,
	})
	if len(got) != 1 || got[0].Subject != suspect || got[0].Rule != RuleOmission {
		t.Fatalf("omission alert = %+v", got)
	}

	// Outside the window: the endpoint's advertisement is stale — that is
	// ordinary link loss, not an omission.
	r2 := OmissionRule(10 * time.Second)
	r2.Observe(&logevent.HelloReceived{
		Base: base(1*time.Second, auditlog.KindHelloRx),
		From: victim, SymNeighbors: []addr.Node{suspect},
	})
	if got := r2.Observe(&logevent.TwoHopDown{
		Base: base(30*time.Second, auditlog.KindTwoHopDown),
		Via:  suspect, TwoHop: victim,
	}); len(got) != 0 {
		t.Fatalf("stale advertisement alerted: %+v", got)
	}

	// Never-advertised pair: no alert.
	r3 := OmissionRule(10 * time.Second)
	if got := r3.Observe(&logevent.TwoHopDown{
		Base: base(2*time.Second, auditlog.KindTwoHopDown),
		Via:  suspect, TwoHop: victim,
	}); len(got) != 0 {
		t.Fatalf("unadvertised pair alerted: %+v", got)
	}
}

func TestMPRAddedRuleWarmup(t *testing.T) {
	r := MPRAddedRule(20 * time.Second)
	added := func(at time.Duration) logevent.Event {
		return &logevent.MPRSetChanged{
			Base:  base(at, auditlog.KindMPRSet),
			Added: []addr.Node{addr.NodeAt(9)},
			MPRs:  []addr.Node{addr.NodeAt(9)},
		}
	}
	// First event anchors the warmup; additions inside it are silent.
	if got := r.Observe(added(1 * time.Second)); len(got) != 0 {
		t.Fatalf("alerted during warmup: %+v", got)
	}
	if got := r.Observe(added(10 * time.Second)); len(got) != 0 {
		t.Fatalf("alerted during warmup: %+v", got)
	}
	got := r.Observe(added(30 * time.Second))
	if len(got) != 1 || got[0].Subject != addr.NodeAt(9) || got[0].Rule != RuleMPRAdded {
		t.Fatalf("post-warmup alert = %+v", got)
	}
}

func TestEngineFeedsAllRules(t *testing.T) {
	eng := NewEngine(Catalog()...)
	var events []logevent.Event
	// A storm: 12 TCs in 6 seconds from one originator.
	for i := 0; i < 12; i++ {
		events = append(events, tcRx(time.Duration(i)*500*time.Millisecond, addr.NodeAt(9)))
	}
	alerts := eng.Feed(events, 6*time.Second)
	found := false
	for _, a := range alerts {
		if a.Rule == RuleStorm && a.Subject == addr.NodeAt(9) {
			found = true
		}
	}
	if !found {
		t.Errorf("storm not flagged; alerts = %+v", alerts)
	}
}

func TestEngineQuietOnNormalTraffic(t *testing.T) {
	eng := NewEngine(Catalog()...)
	var events []logevent.Event
	// Normal-rate traffic: one TC per origin per 5s, HELLOs every 2s,
	// each TC_TX echoed promptly.
	for s := 0; s < 60; s += 5 {
		at := time.Duration(s) * time.Second
		events = append(events,
			tcRx(at, addr.NodeAt(2)),
			&logevent.TCSent{Base: base(at, auditlog.KindTCTx), ANSN: s},
			&logevent.MessageDropped{
				Base: base(at+time.Second, auditlog.KindMsgDrop),
				From: addr.NodeAt(2), Reason: "own",
			},
		)
	}
	alerts := eng.Feed(events, 61*time.Second)
	if len(alerts) != 0 {
		t.Errorf("false positives on normal traffic: %+v", alerts)
	}
}
