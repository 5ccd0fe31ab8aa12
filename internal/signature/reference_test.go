package signature

// The rule engine, catalog and log parser that the Matcher replaced, kept
// as the oracle it must agree with (TestMatcherMatchesReference,
// FuzzMatcher). They are kept as they were, with four mechanical edits:
// the engine's Alert is refAlert (it carries whole events), the logevent
// package qualifier is gone, Line.NodesField takes its nil dst, and the
// rule names and thresholds are the package's own constants.

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
)

// refAlert is one signature match.
type refAlert struct {
	Rule    string
	Subject addr.Node // the suspected node
	At      time.Duration
	Detail  string
	Events  []Event // the matched evidence, oldest first
}

// Rule is a live signature instance. Rules are stateful and single-stream:
// one Rule instance serves one node's log.
type Rule interface {
	// Name identifies the rule in alerts.
	Name() string
	// Observe feeds one parsed log event and returns any alerts it
	// completes.
	Observe(ev Event) []refAlert
	// Tick advances virtual time for deadline-based rules.
	Tick(now time.Duration) []refAlert
}

// Engine runs a set of rules over a log-event stream.
type Engine struct {
	rules []Rule
}

// NewEngine builds an engine over the given rules.
func NewEngine(rules ...Rule) *Engine {
	return &Engine{rules: rules}
}

// Feed processes a batch of events (oldest first) and then advances the
// clock, returning every alert raised.
func (e *Engine) Feed(events []Event, now time.Duration) []refAlert {
	var alerts []refAlert
	for _, ev := range events {
		for _, r := range e.rules {
			alerts = append(alerts, r.Observe(ev)...)
		}
	}
	for _, r := range e.rules {
		alerts = append(alerts, r.Tick(now)...)
	}
	return alerts
}

// Predicate matches an event and, on success, names the subject node the
// event is about.
type Predicate func(ev Event) (subject addr.Node, ok bool)

// ThresholdRule alerts when at least Count events matching Match about the
// same subject occur within Window. After alerting it resets that
// subject's history to avoid alert storms about the storm.
type ThresholdRule struct {
	RuleName string
	Match    Predicate
	Count    int
	Window   time.Duration

	seen map[addr.Node][]Event
}

var _ Rule = (*ThresholdRule)(nil)

// Name implements Rule.
func (r *ThresholdRule) Name() string { return r.RuleName }

// Observe implements Rule.
func (r *ThresholdRule) Observe(ev Event) []refAlert {
	subject, ok := r.Match(ev)
	if !ok {
		return nil
	}
	if r.seen == nil {
		r.seen = make(map[addr.Node][]Event)
	}
	hist := append(r.seen[subject], ev)
	// Evict events older than the window.
	cutoff := ev.When() - r.Window
	start := 0
	for start < len(hist) && hist[start].When() < cutoff {
		start++
	}
	hist = hist[start:]
	if len(hist) >= r.Count {
		r.seen[subject] = nil
		return []refAlert{{
			Rule:    r.RuleName,
			Subject: subject,
			At:      ev.When(),
			Detail:  "threshold reached",
			Events:  hist,
		}}
	}
	r.seen[subject] = hist
	return nil
}

// Tick implements Rule; threshold rules are purely event-driven.
func (r *ThresholdRule) Tick(time.Duration) []refAlert { return nil }

// SequenceRule alerts when its steps match in order, about the same
// subject, with the whole sequence inside Window.
type SequenceRule struct {
	RuleName string
	Steps    []Predicate
	Window   time.Duration

	// progress[subject] = events matched so far
	progress map[addr.Node][]Event
}

var _ Rule = (*SequenceRule)(nil)

// Name implements Rule.
func (r *SequenceRule) Name() string { return r.RuleName }

// Observe implements Rule.
func (r *SequenceRule) Observe(ev Event) []refAlert {
	if len(r.Steps) == 0 {
		return nil
	}
	if r.progress == nil {
		r.progress = make(map[addr.Node][]Event)
	}
	var alerts []refAlert

	// Advance existing partial matches in subject order, so alerts come
	// out in the same order every run.
	var subjects []addr.Node
	for subject := range r.progress {
		subjects = append(subjects, subject)
	}
	slices.Sort(subjects)
	for _, subject := range subjects {
		matched := r.progress[subject]
		if ev.When()-matched[0].When() > r.Window {
			delete(r.progress, subject)
			continue
		}
		s, ok := r.Steps[len(matched)](ev)
		if !ok || s != subject {
			continue
		}
		matched = append(matched, ev)
		if len(matched) == len(r.Steps) {
			delete(r.progress, subject)
			alerts = append(alerts, refAlert{
				Rule:    r.RuleName,
				Subject: subject,
				At:      ev.When(),
				Detail:  "sequence complete",
				Events:  matched,
			})
			continue
		}
		r.progress[subject] = matched
	}

	// Try to start a new match.
	if subject, ok := r.Steps[0](ev); ok {
		if _, busy := r.progress[subject]; !busy {
			if len(r.Steps) == 1 {
				alerts = append(alerts, refAlert{
					Rule:    r.RuleName,
					Subject: subject,
					At:      ev.When(),
					Detail:  "sequence complete",
					Events:  []Event{ev},
				})
			} else {
				r.progress[subject] = []Event{ev}
			}
		}
	}
	return alerts
}

// Tick implements Rule; expired partial matches are dropped lazily in
// Observe.
func (r *SequenceRule) Tick(time.Duration) []refAlert { return nil }

// AbsenceRule alerts when, after a Trigger event about a subject, no
// Expected event about the same subject arrives within Deadline. This is
// how a drop attack becomes visible in logs: the expected relay echo never
// happens.
type AbsenceRule struct {
	RuleName string
	Trigger  Predicate
	Expected Predicate
	Deadline time.Duration

	pending map[addr.Node]Event // subject -> trigger event
}

var _ Rule = (*AbsenceRule)(nil)

// Name implements Rule.
func (r *AbsenceRule) Name() string { return r.RuleName }

// Observe implements Rule.
func (r *AbsenceRule) Observe(ev Event) []refAlert {
	if r.pending == nil {
		r.pending = make(map[addr.Node]Event)
	}
	if subject, ok := r.Expected(ev); ok {
		delete(r.pending, subject)
	}
	if subject, ok := r.Trigger(ev); ok {
		if _, busy := r.pending[subject]; !busy {
			r.pending[subject] = ev
		}
	}
	return nil
}

// Tick implements Rule: it fires alerts, in subject order, for every
// deadline that has passed without the expected event.
func (r *AbsenceRule) Tick(now time.Duration) []refAlert {
	var due []addr.Node
	for subject, trigger := range r.pending {
		if now >= trigger.When()+r.Deadline {
			due = append(due, subject)
		}
	}
	slices.Sort(due)
	var alerts []refAlert
	for _, subject := range due {
		alerts = append(alerts, refAlert{
			Rule:    r.RuleName,
			Subject: subject,
			At:      now,
			Detail:  "expected event absent",
			Events:  []Event{r.pending[subject]},
		})
		delete(r.pending, subject)
	}
	return alerts
}

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

func (r *omissionRule) Observe(ev Event) []refAlert {
	switch e := ev.(type) {
	case *HelloReceived:
		for _, s := range e.SymNeighbors {
			r.lastSym[[2]addr.Node{s, e.From}] = e.When()
		}
	case *TwoHopDown:
		// Was the lost endpoint still advertising the suspect recently?
		if last, seen := r.lastSym[[2]addr.Node{e.Via, e.TwoHop}]; seen && e.When()-last <= r.window {
			return []refAlert{{
				Rule:    RuleOmission,
				Subject: e.Via,
				At:      e.When(),
				Detail:  "2-hop link lost while endpoint still advertised the suspect",
				Events:  []Event{e},
			}}
		}
	}
	return nil
}

func (r *omissionRule) Tick(time.Duration) []refAlert { return nil }

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

func (r *mprAddedRule) Observe(ev Event) []refAlert {
	if !r.seen {
		r.seen = true
		r.firstAt = ev.When()
	}
	m, ok := ev.(*MPRSetChanged)
	if !ok || len(m.Added) == 0 || ev.When() < r.firstAt+r.warmup {
		return nil
	}
	alerts := make([]refAlert, 0, len(m.Added))
	for _, added := range m.Added {
		alerts = append(alerts, refAlert{
			Rule:    RuleMPRAdded,
			Subject: added,
			At:      ev.When(),
			Detail:  "new MPR after steady state",
			Events:  []Event{m},
		})
	}
	return alerts
}

func (r *mprAddedRule) Tick(time.Duration) []refAlert { return nil }

// MPRReplacedRule fires on every MPR_SET change that removed at least one
// MPR while adding another — the paper's evidence E1, the trigger for a
// cooperative investigation of the *replacing* MPR.
func MPRReplacedRule() Rule {
	return &SequenceRule{
		RuleName: RuleMPRReplaced,
		Window:   time.Second,
		Steps: []Predicate{
			func(ev Event) (addr.Node, bool) {
				m, ok := ev.(*MPRSetChanged)
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
		Match: func(ev Event) (addr.Node, bool) {
			switch e := ev.(type) {
			case *TCReceived:
				return e.Originator, true
			case *HelloReceived:
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
		Match: func(ev Event) (addr.Node, bool) {
			d, ok := ev.(*MessageDropped)
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
		Trigger: func(ev Event) (addr.Node, bool) {
			if t, ok := ev.(*TCSent); ok {
				return t.Observer(), true
			}
			return addr.None, false
		},
		Expected: func(ev Event) (addr.Node, bool) {
			d, ok := ev.(*MessageDropped)
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
		Match: func(ev Event) (addr.Node, bool) {
			switch e := ev.(type) {
			case *NeighborUp:
				return e.Neighbor, true
			case *NeighborDown:
				return e.Neighbor, true
			default:
				return addr.None, false
			}
		},
	}
}

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

// intField reads the named field as an integer; a missing or malformed
// field reads as 0.
func intField(l auditlog.Line, key string) int {
	v, _ := l.Get(key)
	n, _ := strconv.Atoi(v)
	return n
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
		sym, err := l.NodesField("sym", nil)
		if err != nil {
			return nil, err
		}
		will := intField(l, "will")
		return &HelloReceived{Base: base, From: from, SymNeighbors: sym, Willingness: will}, nil

	case auditlog.KindHelloTx:
		sym, err := l.NodesField("sym", nil)
		if err != nil {
			return nil, err
		}
		return &HelloSent{Base: base, SymNeighbors: sym}, nil

	case auditlog.KindTCRx:
		orig, err := l.NodeField("orig")
		if err != nil {
			return nil, err
		}
		adv, err := l.NodesField("adv", nil)
		if err != nil {
			return nil, err
		}
		ansn := intField(l, "ansn")
		return &TCReceived{Base: base, Originator: orig, ANSN: ansn, Advertised: adv}, nil

	case auditlog.KindTCTx:
		adv, err := l.NodesField("adv", nil)
		if err != nil {
			return nil, err
		}
		ansn := intField(l, "ansn")
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
		added, err := l.NodesField("added", nil)
		if err != nil {
			return nil, err
		}
		removed, err := l.NodesField("removed", nil)
		if err != nil {
			return nil, err
		}
		mprs, err := l.NodesField("mprs", nil)
		if err != nil {
			return nil, err
		}
		return &MPRSetChanged{Base: base, Added: added, Removed: removed, MPRs: mprs}, nil

	case auditlog.KindMPRSelector:
		sel, err := l.NodesField("selectors", nil)
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
