package signature

import (
	"time"

	"repro/internal/addr"
	"repro/internal/logevent"
)

// Rule names produced by the catalog.
const (
	RuleMPRReplaced  = "mpr-replaced"      // E1: investigation trigger
	RuleMPRAdded     = "mpr-added"         // E1 variant: new MPR in steady state
	RuleStorm        = "broadcast-storm"   // active forge: message storm
	RuleReplay       = "replay-stale"      // modify-and-forward: replays
	RuleDroppedRelay = "relay-drop"        // drop attack: TC never echoed
	RuleFlappingLink = "neighbor-flapping" // instability / identity games
	RuleOmission     = "omitted-neighbor"  // Expression 3: live link dropped from HELLOs

	// RuleEvidenceForged is raised by the evidence plane rather than a log
	// signature: a node's sealed-log proofs failed verification — its tree
	// head diverged from gossiped history or a cited record's inclusion
	// proof was invalid (DESIGN.md §8). Forged evidence is first-hand,
	// cryptographic proof of tampering, so the detector treats it as an
	// immediate conviction rather than an investigation trigger.
	RuleEvidenceForged = "evidence-forged"

	// RuleDishonestRecommender is raised by the reputation plane
	// (DESIGN.md §9): a node's gossiped trust vectors repeatedly
	// majority-failed the receiver's deviation test. Unlike forged
	// evidence this is statistical, not cryptographic — an honest node
	// with a genuinely divergent view can trip it — so it costs direct
	// trust and recommendation standing but never convicts by itself.
	RuleDishonestRecommender = "dishonest-recommender"
)

// Catalog thresholds, matched to the RFC 3626 default timers (2s HELLO,
// 5s TC).
const (
	// stormCount TCs or HELLOs from one originator within stormWindow is
	// a storm; legitimate traffic is ~2 TCs per origin per 5s.
	stormCount  = 12
	stormWindow = 10 * time.Second
	// replayCount stale drops within replayWindow is a replay attack.
	replayCount  = 3
	replayWindow = 30 * time.Second
	// echoDeadline is how long after sending our own TC we expect an MPR
	// echo (MSG_DROP reason=own) before suspecting a drop.
	echoDeadline = 12 * time.Second
	// flapCount neighbor up/down transitions within flapWindow.
	flapCount  = 6
	flapWindow = 30 * time.Second
	// mprWarmup suppresses new-MPR alerts during initial convergence;
	// after it, any MPR addition in a stable network is worth one
	// investigation.
	mprWarmup = 20 * time.Second
	// omissionWindow is how recently the dropped endpoint must have
	// advertised the suspect for a 2-hop loss to look like an omission
	// rather than genuine link loss.
	omissionWindow = 10 * time.Second
)

// Catalog builds the concrete signature set of §III for one node's log.
func Catalog() []Rule {
	return []Rule{
		MPRReplacedRule(),
		MPRAddedRule(mprWarmup),
		StormRule(stormCount, stormWindow),
		ReplayRule(replayCount, replayWindow),
		DroppedRelayRule(echoDeadline),
		FlappingRule(flapCount, flapWindow),
		OmissionRule(omissionWindow),
	}
}

// omissionRule correlates 2-hop losses with the lost endpoint's own
// recent HELLOs: when the entry (via=X, twohop=Y) expires although Y was
// advertising X as symmetric moments ago, X likely dropped Y from its
// HELLOs on purpose — the paper's Expression 3.
type omissionRule struct {
	window  time.Duration
	lastSym map[[2]addr.Node]time.Duration // (advertised X, by Y) -> time
}

var _ Rule = (*omissionRule)(nil)

// OmissionRule builds the Expression 3 signature with the given
// recency window.
func OmissionRule(window time.Duration) Rule {
	return &omissionRule{window: window, lastSym: make(map[[2]addr.Node]time.Duration)}
}

func (r *omissionRule) Name() string { return RuleOmission }

func (r *omissionRule) Observe(ev logevent.Event) []Alert {
	switch e := ev.(type) {
	case *logevent.HelloReceived:
		for _, s := range e.SymNeighbors {
			r.lastSym[[2]addr.Node{s, e.From}] = e.When()
		}
	case *logevent.TwoHopDown:
		// Was the lost endpoint still advertising the suspect recently?
		if last, seen := r.lastSym[[2]addr.Node{e.Via, e.TwoHop}]; seen && e.When()-last <= r.window {
			return []Alert{{
				Rule:    RuleOmission,
				Subject: e.Via,
				At:      e.When(),
				Detail:  "2-hop link lost while endpoint still advertised the suspect",
				Events:  []logevent.Event{e},
			}}
		}
	}
	return nil
}

func (r *omissionRule) Tick(time.Duration) []Alert { return nil }

// mprAddedRule alerts on MPR additions once the log is past its warmup.
type mprAddedRule struct {
	warmup  time.Duration
	firstAt time.Duration
	seen    bool
}

var _ Rule = (*mprAddedRule)(nil)

// MPRAddedRule fires on every MPR-set addition occurring later than warmup
// after the first logged event — the E1 variant where a spoofer inserts
// itself as a brand-new MPR (covering a phantom node nobody else covers)
// without displacing anyone.
func MPRAddedRule(warmup time.Duration) Rule {
	return &mprAddedRule{warmup: warmup}
}

func (r *mprAddedRule) Name() string { return RuleMPRAdded }

func (r *mprAddedRule) Observe(ev logevent.Event) []Alert {
	if !r.seen {
		r.seen = true
		r.firstAt = ev.When()
	}
	m, ok := ev.(*logevent.MPRSetChanged)
	if !ok || len(m.Added) == 0 || ev.When() < r.firstAt+r.warmup {
		return nil
	}
	alerts := make([]Alert, 0, len(m.Added))
	for _, added := range m.Added {
		alerts = append(alerts, Alert{
			Rule:    RuleMPRAdded,
			Subject: added,
			At:      ev.When(),
			Detail:  "new MPR after steady state",
			Events:  []logevent.Event{m},
		})
	}
	return alerts
}

func (r *mprAddedRule) Tick(time.Duration) []Alert { return nil }

// MPRReplacedRule fires on every MPR_SET change that removed at least one
// MPR while adding another — the paper's evidence E1, the trigger for a
// cooperative investigation of the *replacing* MPR.
func MPRReplacedRule() Rule {
	return &SequenceRule{
		RuleName: RuleMPRReplaced,
		Window:   time.Second,
		Steps: []Predicate{
			func(ev logevent.Event) (addr.Node, bool) {
				m, ok := ev.(*logevent.MPRSetChanged)
				if !ok || len(m.Added) == 0 || len(m.Removed) == 0 {
					return addr.None, false
				}
				// The suspicious node is the replacing MPR.
				return m.Added[0], true
			},
		},
	}
}

// StormRule fires when one originator floods count messages within window
// (the §II-B broadcast storm).
func StormRule(count int, window time.Duration) Rule {
	return &ThresholdRule{
		RuleName: RuleStorm,
		Count:    count,
		Window:   window,
		Match: func(ev logevent.Event) (addr.Node, bool) {
			switch e := ev.(type) {
			case *logevent.TCReceived:
				return e.Originator, true
			case *logevent.HelloReceived:
				return e.From, true
			default:
				return addr.None, false
			}
		},
	}
}

// ReplayRule fires when count stale-sequence drops from one originator
// accumulate within window (the §II-B replay / modify-and-forward attack;
// sequence numbers are the standard protection the paper notes can be
// hijacked).
func ReplayRule(count int, window time.Duration) Rule {
	return &ThresholdRule{
		RuleName: RuleReplay,
		Count:    count,
		Window:   window,
		Match: func(ev logevent.Event) (addr.Node, bool) {
			d, ok := ev.(*logevent.MessageDropped)
			if !ok || d.Reason != "stale" {
				return addr.None, false
			}
			return d.From, true
		},
	}
}

// DroppedRelayRule fires when our own TC transmission is never echoed
// back within deadline — evidence E2: a previously selected MPR is
// dropping instead of relaying. The subject of both trigger and expected
// events is the observer itself; the investigation layer resolves which
// MPR went silent.
func DroppedRelayRule(deadline time.Duration) Rule {
	return &AbsenceRule{
		RuleName: RuleDroppedRelay,
		Deadline: deadline,
		Trigger: func(ev logevent.Event) (addr.Node, bool) {
			if t, ok := ev.(*logevent.TCSent); ok {
				return t.Observer(), true
			}
			return addr.None, false
		},
		Expected: func(ev logevent.Event) (addr.Node, bool) {
			d, ok := ev.(*logevent.MessageDropped)
			if !ok || d.Reason != "own" {
				return addr.None, false
			}
			return d.Observer(), true
		},
	}
}

// FlappingRule fires when a neighbor's symmetric status flips count times
// within window — either severe instability or an identity-spoofing game.
func FlappingRule(count int, window time.Duration) Rule {
	return &ThresholdRule{
		RuleName: RuleFlappingLink,
		Count:    count,
		Window:   window,
		Match: func(ev logevent.Event) (addr.Node, bool) {
			switch e := ev.(type) {
			case *logevent.NeighborUp:
				return e.Neighbor, true
			case *logevent.NeighborDown:
				return e.Neighbor, true
			default:
				return addr.None, false
			}
		},
	}
}
