// Package signature implements the log-signature matching engine of the
// paper's IDS (§III): an intrusion signature is a partially ordered,
// time-constrained pattern of audit-log events, and any log stream that
// comes close to a signature raises an alert.
//
// Three rule families cover the attack classes of §II-B:
//
//   - ThresholdRule — N matching events about one subject inside a sliding
//     window (broadcast storm, repeated stale replays).
//   - SequenceRule — ordered steps about one subject inside a window
//     (multi-stage active-forge patterns such as an MPR replacement
//     following a neighborhood change).
//   - AbsenceRule — a triggering event starts a deadline; the alert fires
//     when the expected follow-up never appears (drop/black-hole: the MPR
//     never echoed our TC back).
//
// The concrete signatures used by the detector are built in Catalog.
package signature

import (
	"slices"
	"time"

	"repro/internal/addr"
	"repro/internal/logevent"
)

// Alert is one signature match.
type Alert struct {
	Rule    string
	Subject addr.Node // the suspected node
	At      time.Duration
	Detail  string
	Events  []logevent.Event // the matched evidence, oldest first
}

// Rule is a live signature instance. Rules are stateful and single-stream:
// one Rule instance serves one node's log.
type Rule interface {
	// Name identifies the rule in alerts.
	Name() string
	// Observe feeds one parsed log event and returns any alerts it
	// completes.
	Observe(ev logevent.Event) []Alert
	// Tick advances virtual time for deadline-based rules.
	Tick(now time.Duration) []Alert
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
func (e *Engine) Feed(events []logevent.Event, now time.Duration) []Alert {
	var alerts []Alert
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
type Predicate func(ev logevent.Event) (subject addr.Node, ok bool)

// ThresholdRule alerts when at least Count events matching Match about the
// same subject occur within Window. After alerting it resets that
// subject's history to avoid alert storms about the storm.
type ThresholdRule struct {
	RuleName string
	Match    Predicate
	Count    int
	Window   time.Duration

	seen map[addr.Node][]logevent.Event
}

var _ Rule = (*ThresholdRule)(nil)

// Name implements Rule.
func (r *ThresholdRule) Name() string { return r.RuleName }

// Observe implements Rule.
func (r *ThresholdRule) Observe(ev logevent.Event) []Alert {
	subject, ok := r.Match(ev)
	if !ok {
		return nil
	}
	if r.seen == nil {
		r.seen = make(map[addr.Node][]logevent.Event)
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
		return []Alert{{
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
func (r *ThresholdRule) Tick(time.Duration) []Alert { return nil }

// SequenceRule alerts when its steps match in order, about the same
// subject, with the whole sequence inside Window.
type SequenceRule struct {
	RuleName string
	Steps    []Predicate
	Window   time.Duration

	// progress[subject] = events matched so far
	progress map[addr.Node][]logevent.Event
}

var _ Rule = (*SequenceRule)(nil)

// Name implements Rule.
func (r *SequenceRule) Name() string { return r.RuleName }

// Observe implements Rule.
func (r *SequenceRule) Observe(ev logevent.Event) []Alert {
	if len(r.Steps) == 0 {
		return nil
	}
	if r.progress == nil {
		r.progress = make(map[addr.Node][]logevent.Event)
	}
	var alerts []Alert

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
			alerts = append(alerts, Alert{
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
				alerts = append(alerts, Alert{
					Rule:    r.RuleName,
					Subject: subject,
					At:      ev.When(),
					Detail:  "sequence complete",
					Events:  []logevent.Event{ev},
				})
			} else {
				r.progress[subject] = []logevent.Event{ev}
			}
		}
	}
	return alerts
}

// Tick implements Rule; expired partial matches are dropped lazily in
// Observe.
func (r *SequenceRule) Tick(time.Duration) []Alert { return nil }

// AbsenceRule alerts when, after a Trigger event about a subject, no
// Expected event about the same subject arrives within Deadline. This is
// how a drop attack becomes visible in logs: the expected relay echo never
// happens.
type AbsenceRule struct {
	RuleName string
	Trigger  Predicate
	Expected Predicate
	Deadline time.Duration

	pending map[addr.Node]logevent.Event // subject -> trigger event
}

var _ Rule = (*AbsenceRule)(nil)

// Name implements Rule.
func (r *AbsenceRule) Name() string { return r.RuleName }

// Observe implements Rule.
func (r *AbsenceRule) Observe(ev logevent.Event) []Alert {
	if r.pending == nil {
		r.pending = make(map[addr.Node]logevent.Event)
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
func (r *AbsenceRule) Tick(now time.Duration) []Alert {
	var due []addr.Node
	for subject, trigger := range r.pending {
		if now >= trigger.When()+r.Deadline {
			due = append(due, subject)
		}
	}
	slices.Sort(due)
	var alerts []Alert
	for _, subject := range due {
		alerts = append(alerts, Alert{
			Rule:    r.RuleName,
			Subject: subject,
			At:      now,
			Detail:  "expected event absent",
			Events:  []logevent.Event{r.pending[subject]},
		})
		delete(r.pending, subject)
	}
	return alerts
}
