// Package signature matches the paper's IDS signatures (§III) against one
// node's audit log: an intrusion signature is a time-constrained pattern
// of log lines, and any log stream that comes close to one raises an
// alert.
//
// The catalog is fixed. Threshold signatures count matches about one
// subject inside a sliding window (broadcast storm, stale replays,
// neighbor flapping); event signatures fire on one line (an MPR replaced
// or added, a 2-hop link lost while its endpoint still advertised the
// suspect); relay-drop fires when our own TC is never echoed back. The
// Matcher reads each auditlog.Line in place and keeps only times, so a
// warm scan allocates nothing.
//
// This is the boundary the paper draws: the routing daemon writes logs,
// the IDS reads them. Nothing here touches routing internals.
package signature

import (
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
)

// Rule names.
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

// Alert is one signature match.
type Alert struct {
	Rule    string
	Subject addr.Node // the suspected node
	At      time.Duration
	Detail  string
	// Endpoint is, for RuleOmission, the 2-hop node the subject dropped
	// from its HELLOs; it is addr.None for every other rule.
	Endpoint addr.Node
}

// threshold is one threshold signature: count matches about one subject
// within span. seen keeps each subject's match times, oldest first.
type threshold struct {
	count int
	span  time.Duration
	seen  map[addr.Node][]time.Duration
}

// hit records a match about s at at and reports whether it completes the
// signature. Times older than at-span leave the window first; an alert
// empties s's window, so a storm raises one alert, not one per message.
func (th *threshold) hit(s addr.Node, at time.Duration) bool {
	ts := th.seen[s]
	if ts == nil {
		// A window never holds more than count times: a full one empties.
		ts = make([]time.Duration, 0, th.count)
	}
	cutoff := at - th.span
	start := 0
	for start < len(ts) && ts[start] < cutoff {
		start++
	}
	ts = append(ts[:copy(ts, ts[start:])], at)
	full := len(ts) >= th.count
	if full {
		ts = ts[:0]
	}
	th.seen[s] = ts
	return full
}

// Matcher runs the signature catalog over one node's audit log, oldest
// line first. It is stateful and serves a single log.
type Matcher struct {
	storm, replay, flap threshold

	// lastSym[{x, y}] is when y last advertised x as a symmetric
	// neighbor (omitted-neighbor).
	lastSym map[[2]addr.Node]time.Duration

	// The mpr-added warm-up starts at the first line a signature sees.
	started bool
	firstAt time.Duration

	// The one pending relay-drop deadline: our earliest TC not yet
	// echoed back, and the node that sent it.
	echoPending bool
	echoFrom    time.Duration
	echoBy      addr.Node

	// Parse scratch for the list fields.
	added, nodes []addr.Node
}

// NewMatcher returns a matcher that has seen no line.
func NewMatcher() *Matcher {
	return &Matcher{
		storm:   threshold{count: stormCount, span: stormWindow, seen: make(map[addr.Node][]time.Duration)},
		replay:  threshold{count: replayCount, span: replayWindow, seen: make(map[addr.Node][]time.Duration)},
		flap:    threshold{count: flapCount, span: flapWindow, seen: make(map[addr.Node][]time.Duration)},
		lastSym: make(map[[2]addr.Node]time.Duration),
	}
}

// Observe matches one audit line, appending to dst the alerts it
// completes, in catalog order. A line of an unknown kind, or one whose
// fields fail to parse, is seen by no signature.
func (m *Matcher) Observe(dst []Alert, l auditlog.Line) []Alert {
	at := l.T
	var err, err2, err3 error
	switch kind := l.Kind(); kind {
	case auditlog.KindHelloRx:
		var from addr.Node
		from, err = l.NodeField("from")
		m.nodes, err2 = l.NodesField("sym", m.nodes)
		if err != nil || err2 != nil {
			return dst
		}
		if m.storm.hit(from, at) {
			dst = append(dst, Alert{Rule: RuleStorm, Subject: from, At: at, Detail: "threshold reached"})
		}
		for _, s := range m.nodes {
			m.lastSym[[2]addr.Node{s, from}] = at
		}

	case auditlog.KindTCRx:
		var orig addr.Node
		orig, err = l.NodeField("orig")
		m.nodes, err2 = l.NodesField("adv", m.nodes)
		if err != nil || err2 != nil {
			return dst
		}
		if m.storm.hit(orig, at) {
			dst = append(dst, Alert{Rule: RuleStorm, Subject: orig, At: at, Detail: "threshold reached"})
		}

	case auditlog.KindTCTx:
		if m.nodes, err = l.NodesField("adv", m.nodes); err != nil {
			return dst
		}
		if !m.echoPending {
			m.echoPending, m.echoFrom, m.echoBy = true, at, l.Node
		}

	case auditlog.KindMsgDrop:
		var from addr.Node
		if from, err = l.NodeField("from"); err != nil {
			return dst
		}
		switch reason, _ := l.Get("reason"); reason {
		case "stale":
			if m.replay.hit(from, at) {
				dst = append(dst, Alert{Rule: RuleReplay, Subject: from, At: at, Detail: "threshold reached"})
			}
		case "own":
			m.echoPending = false
		}

	case auditlog.KindNeighborUp, auditlog.KindNeighborDown:
		var nb addr.Node
		if nb, err = l.NodeField("neighbor"); err != nil {
			return dst
		}
		if m.flap.hit(nb, at) {
			dst = append(dst, Alert{Rule: RuleFlappingLink, Subject: nb, At: at, Detail: "threshold reached"})
		}

	case auditlog.KindTwoHopDown:
		var via, twohop addr.Node
		via, err = l.NodeField("via")
		twohop, err2 = l.NodeField("twohop")
		if err != nil || err2 != nil {
			return dst
		}
		// Was the lost endpoint still advertising the suspect recently?
		if last, seen := m.lastSym[[2]addr.Node{via, twohop}]; seen && at-last <= omissionWindow {
			dst = append(dst, Alert{Rule: RuleOmission, Subject: via, At: at,
				Detail: "2-hop link lost while endpoint still advertised the suspect", Endpoint: twohop})
		}

	case auditlog.KindMPRSet:
		m.added, err = l.NodesField("added", m.added)
		m.nodes, err2 = l.NodesField("removed", m.nodes)
		removed := len(m.nodes)
		m.nodes, err3 = l.NodesField("mprs", m.nodes)
		if err != nil || err2 != nil || err3 != nil {
			return dst
		}
		// A replacement names the replacing MPR.
		if len(m.added) > 0 && removed > 0 {
			dst = append(dst, Alert{Rule: RuleMPRReplaced, Subject: m.added[0], At: at, Detail: "sequence complete"})
		}
		if m.started && at >= m.firstAt+mprWarmup {
			for _, a := range m.added {
				dst = append(dst, Alert{Rule: RuleMPRAdded, Subject: a, At: at, Detail: "new MPR after steady state"})
			}
		}

	case auditlog.KindBadPacket:
		// No signature reads it, and it has no required field; it only
		// starts the warm-up.

	case auditlog.KindHelloTx, auditlog.KindTCFwd, auditlog.KindTwoHopUp, auditlog.KindMPRSelector:
		// No signature reads these kinds either; a well-formed one only
		// starts the warm-up.
		if m.started {
			return dst
		}
		switch kind {
		case auditlog.KindHelloTx:
			m.nodes, err = l.NodesField("sym", m.nodes)
		case auditlog.KindTCFwd:
			_, err = l.NodeField("orig")
			_, err2 = l.NodeField("sender")
		case auditlog.KindTwoHopUp:
			_, err = l.NodeField("via")
			_, err2 = l.NodeField("twohop")
		default:
			m.nodes, err = l.NodesField("selectors", m.nodes)
		}
		if err != nil || err2 != nil {
			return dst
		}

	default:
		return dst
	}
	if !m.started {
		m.started, m.firstAt = true, at
	}
	return dst
}

// Tick advances the clock to now, after a scan's lines, appending the
// relay-drop alert to dst when our own TC has gone unechoed past its
// deadline. The alert is stamped now and names the node that sent the TC.
func (m *Matcher) Tick(dst []Alert, now time.Duration) []Alert {
	if m.echoPending && now >= m.echoFrom+echoDeadline {
		m.echoPending = false
		dst = append(dst, Alert{Rule: RuleDroppedRelay, Subject: m.echoBy, At: now, Detail: "expected event absent"})
	}
	return dst
}
