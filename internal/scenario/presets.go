package scenario

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/wire"
)

// The preset registry: named, ready-to-run scenarios. Every packet-kind
// preset is also a golden regression case — testdata/golden/<name>.golden
// pins its digest, and CI regenerates the whole matrix on each PR.

var registry = map[string]Spec{}

// Register adds a preset. It panics on duplicates or invalid specs —
// presets are package data, so both are programming errors.
func Register(s Spec) {
	if s.Name == "" {
		panic("scenario: preset without a name")
	}
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate preset " + s.Name)
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	registry[s.Name] = s
}

// Get returns a copy of the named preset that shares nothing with the
// registry, so the caller may edit any of it.
func Get(name string) (Spec, bool) {
	s, ok := registry[name]
	return s.clone(), ok
}

// clone deep-copies s's pointer blocks and slices (Custom is a func and
// stays shared).
func (s Spec) clone() Spec {
	s.Positions = slices.Clone(s.Positions)
	s.Attacks = slices.Clone(s.Attacks)
	s.Mobility.Pause = clonePtr(s.Mobility.Pause)
	s.Mobility.Epoch = clonePtr(s.Mobility.Epoch)
	s.Trust = clonePtr(s.Trust)
	s.Evidence = clonePtr(s.Evidence)
	s.Reputation = clonePtr(s.Reputation)
	s.Trace = clonePtr(s.Trace)
	if s.Rounds != nil {
		r := *s.Rounds
		r.LiarCounts = slices.Clone(r.LiarCounts)
		s.Rounds = &r
	}
	return s
}

// clonePtr returns a pointer to a copy of *p, or nil.
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Names lists the registered presets in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Presets returns a copy of every registered spec, as Get does, sorted
// by name.
func Presets() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n].clone())
	}
	return out
}

// PacketPresets returns the packet-kind presets of ordinary size, sorted
// by name — the golden regression corpus every CI run regenerates.
// Large-N presets are excluded; ScalePresets returns those.
func PacketPresets() []Spec {
	var out []Spec
	for _, s := range Presets() {
		if s.WithDefaults().Kind == KindPacket && !s.Scale {
			out = append(out, s)
		}
	}
	return out
}

// ScalePresets returns the large-N packet presets, sorted by name — the
// corpus of the scale CI job (TestGoldenScale, idsbench -sweep scale).
func ScalePresets() []Spec {
	var out []Spec
	for _, s := range Presets() {
		if s.WithDefaults().Kind == KindPacket && s.Scale {
			out = append(out, s)
		}
	}
	return out
}

// Resolve returns the named preset, or loads a spec file when name names
// no preset but an existing file.
func Resolve(name string) (Spec, error) {
	if s, ok := Get(name); ok {
		return s, nil
	}
	s, err := Load(name)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %q is neither a preset (%v) nor a loadable file: %w",
			name, Names(), err)
	}
	return s, nil
}

// x5Line is the 4-node chain 2—1—3—4 of the X5 baseline experiment: the
// victim (node 1) sits mid-chain so the black-holing node 3 is both its
// symmetric neighbor and its MPR toward node 4.
func x5Line() []Position {
	return []Position{{X: 100}, {X: 0}, {X: 200}, {X: 300}}
}

func init() {
	Register(Spec{
		Name:        "baseline",
		Description: "honest 16-node grid, no adversary — the false-positive floor",
		Seed:        1,
		Nodes:       16,
		Duration:    Dur(2 * time.Minute),
	})
	Register(Spec{
		Name:        "linkspoof",
		Description: "phantom-neighbor link spoofing (paper §III-A Expr. 1), attacker adjacent to the victim",
		Seed:        1,
		Nodes:       16,
		Duration:    Dur(3 * time.Minute),
		Attacks: []AttackSpec{
			{Kind: "linkspoof", Node: 16, Mode: "phantom", At: Dur(45 * time.Second), Pin: true, DropCtrl: true},
		},
	})
	Register(Spec{
		Name:        "linkspoof-mobile",
		Description: "phantom spoofing under 2 m/s random-waypoint mobility (X1 regime)",
		Seed:        1,
		Nodes:       16,
		Duration:    Dur(4 * time.Minute),
		Mobility:    MobilitySpec{Model: "waypoint", MaxSpeed: 2},
		Attacks: []AttackSpec{
			{Kind: "linkspoof", Node: 16, Mode: "phantom", At: Dur(45 * time.Second), Pin: true, DropCtrl: true},
		},
	})
	Register(Spec{
		Name:        "blackhole",
		Description: "total drop attack by the victim's MPR on the X5 chain 2—1—3—4",
		Seed:        1,
		Nodes:       4,
		Positions:   x5Line(),
		Radio:       RadioSpec{Range: 120},
		Duration:    Dur(2 * time.Minute),
		Attacks: []AttackSpec{
			{Kind: "blackhole", Node: 3, At: Dur(20 * time.Second)},
		},
	})
	Register(Spec{
		Name:        "grayhole",
		Description: "selective 50% drop attack by the victim's MPR on the X5 chain",
		Seed:        1,
		Nodes:       4,
		Positions:   x5Line(),
		Radio:       RadioSpec{Range: 120},
		Duration:    Dur(2 * time.Minute),
		Attacks: []AttackSpec{
			{Kind: "grayhole", Node: 3, Ratio: 0.5, At: Dur(20 * time.Second)},
		},
	})
	Register(Spec{
		Name: "wormhole",
		Description: "out-of-band tunnel between the neighborhoods of nodes 2 and 7 " +
			"of an 8-node chain — distant nodes appear adjacent",
		Seed:      1,
		Nodes:     8,
		ArenaSide: 1200,
		Placement: "line",
		Spacing:   150,
		Duration:  Dur(150 * time.Second),
		Attacks: []AttackSpec{
			{Kind: "wormhole", Node: 2, Peer: 7, At: Dur(30 * time.Second)},
		},
	})
	Register(Spec{
		Name: "colluding",
		Description: "two colluding spoofers claim-advertise each other, poisoning the " +
			"victim's route to the verification endpoint (§III-A Expr. 2 + §V colluders; " +
			"the E3 not-verified outcome defeats conviction)",
		Seed:     1,
		Nodes:    16,
		Duration: Dur(210 * time.Second),
		Attacks: []AttackSpec{
			{Kind: "colluding", Node: 16, Peer: 15, Mode: "claim", At: Dur(45 * time.Second), Pin: true},
		},
	})
	Register(Spec{
		Name:        "storm",
		Description: "broadcast storm of forged TCs masquerading as node 4 (§II-B), emitted beside the victim",
		Seed:        1,
		Nodes:       4,
		Positions:   x5Line(),
		Radio:       RadioSpec{Range: 120},
		Duration:    Dur(2 * time.Minute),
		Attacks: []AttackSpec{
			{Kind: "storm", Node: 2, Peer: 4, Target: 3, At: Dur(40 * time.Second), For: Dur(30 * time.Second)},
		},
	})
	Register(Spec{
		Name: "logforger",
		Description: "claim-spoofer alibied by a log-forging responder: node 2 lies for " +
			"node 16 and rewrites its sealed audit log to back the lie — the tree-head " +
			"gossip and reply proofs of the evidence plane catch the rewrite (DESIGN.md §8)",
		Seed:     1,
		Nodes:    16,
		Duration: Dur(210 * time.Second),
		Evidence: &EvidenceSpec{Enabled: true},
		Attacks: []AttackSpec{
			{Kind: "linkspoof", Node: 16, Mode: "phantom", At: Dur(45 * time.Second), Pin: true, DropCtrl: true},
			{Kind: "logforge", Node: 2, At: Dur(45 * time.Second)},
		},
	})
	Register(Spec{
		Name: "logforger-colluding",
		Description: "colluding claim-spoofers shielded by two coordinated log forgers " +
			"(nodes 2 and 5) — the evidence plane catches both forgers within a gossip " +
			"period; the pair's mutual first-hand confirmation still defeats conviction, " +
			"the same E3 limit the plain colluding preset pins",
		Seed:     1,
		Nodes:    16,
		Duration: Dur(210 * time.Second),
		Evidence: &EvidenceSpec{Enabled: true},
		Attacks: []AttackSpec{
			{Kind: "colluding", Node: 16, Peer: 15, Mode: "claim", At: Dur(45 * time.Second), Pin: true},
			{Kind: "logforge", Node: 2, At: Dur(45 * time.Second)},
			{Kind: "logforge", Node: 5, At: Dur(45 * time.Second)},
		},
	})
	Register(Spec{
		Name: "badmouth",
		Description: "phantom spoofer plus three badmouthing recommenders (nodes 2-4) " +
			"gossiping zero-trust vectors about every honest node under mobility — the " +
			"deviation test flags them and their framing collapses (DESIGN.md §9)",
		Seed:       1,
		Nodes:      16,
		Duration:   Dur(4 * time.Minute),
		Mobility:   MobilitySpec{Model: "waypoint", MaxSpeed: 2},
		DetectAll:  true,
		Reputation: &ReputationSpec{Enabled: true},
		Attacks: []AttackSpec{
			{Kind: "linkspoof", Node: 16, Mode: "phantom", At: Dur(45 * time.Second), Pin: true, DropCtrl: true},
			{Kind: "badmouth", Node: 2, At: Dur(45 * time.Second)},
			{Kind: "badmouth", Node: 3, At: Dur(45 * time.Second)},
			{Kind: "badmouth", Node: 4, At: Dur(45 * time.Second)},
		},
	})
	Register(Spec{
		Name: "ballotstuff",
		Description: "colluding claim-spoofers shielded by two ballot-stuffing recommenders " +
			"(nodes 2 and 5) vouching maximal trust for the pair — recommendation trust is a " +
			"separate ledger, so the stuffers' collapsed R stops inflating the colluders' standing",
		Seed:       1,
		Nodes:      16,
		Duration:   Dur(210 * time.Second),
		DetectAll:  true,
		Reputation: &ReputationSpec{Enabled: true},
		Attacks: []AttackSpec{
			{Kind: "colluding", Node: 16, Peer: 15, Mode: "claim", At: Dur(45 * time.Second), Pin: true},
			{Kind: "ballotstuff", Node: 2, At: Dur(45 * time.Second)},
			{Kind: "ballotstuff", Node: 5, At: Dur(45 * time.Second)},
		},
	})
	Register(Spec{
		Name: "recommend-onoff",
		Description: "an on-off badmouther (node 2, 30s phases) alternating forged and " +
			"camouflaged vectors to stay under the deviation test's flagging threshold — " +
			"the classic reputation-system evasion, pinned as a known limit",
		Seed:       1,
		Nodes:      16,
		Duration:   Dur(210 * time.Second),
		DetectAll:  true,
		Reputation: &ReputationSpec{Enabled: true},
		Attacks: []AttackSpec{
			{Kind: "linkspoof", Node: 16, Mode: "phantom", At: Dur(45 * time.Second), Pin: true, DropCtrl: true},
			{Kind: "badmouth", Node: 2, At: Dur(45 * time.Second), OnOff: Dur(30 * time.Second)},
		},
	})
	Register(x5Baselines())
	registerScalePresets()
	Register(Spec{
		Name:        "paper-figures",
		Description: "the §V round-based population behind Figures 1-3 (run with trustlab)",
		Kind:        KindRounds,
		Seed:        1,
		Nodes:       16,
		Liars:       4,
		Rounds: &RoundsSpec{
			Rounds:          25,
			NonAnswerProb:   0.1,
			InitialTrustMin: 0.05,
			InitialTrustMax: 0.95,
			LiarCounts:      []int{0, 2, 4, 6},
		},
	})
}

// registerScalePresets adds the large-N presets: the same attack
// narratives as the small corpus, at populations a one-cell medium
// sustains only slowly. They default to range-sized grid cells (the
// scale golden check re-runs them on one cell to prove equivalence) and
// are excluded from the per-PR golden corpus — the scale CI job owns
// them.
func registerScalePresets() {
	Register(Spec{
		Name: "linkspoof-200",
		Description: "phantom-neighbor link spoofing in a 200-node grid " +
			"(the paper's §III-A attack at 12× its evaluation scale)",
		Seed:      1,
		Nodes:     200,
		ArenaSide: 2000,
		Scale:     true,
		Radio:     RadioSpec{Medium: "grid"},
		Duration:  Dur(90 * time.Second),
		Attacks: []AttackSpec{
			{Kind: "linkspoof", Node: 200, Mode: "phantom", At: Dur(30 * time.Second), Pin: true, DropCtrl: true},
		},
	})
	Register(Spec{
		Name:        "linkspoof-200-mobile",
		Description: "the 200-node spoofing scenario under 2 m/s random-waypoint mobility",
		Seed:        1,
		Nodes:       200,
		ArenaSide:   2000,
		Scale:       true,
		Radio:       RadioSpec{Medium: "grid"},
		Mobility:    MobilitySpec{Model: "waypoint", MaxSpeed: 2},
		Duration:    Dur(90 * time.Second),
		Attacks: []AttackSpec{
			{Kind: "linkspoof", Node: 200, Mode: "phantom", At: Dur(30 * time.Second), Pin: true, DropCtrl: true},
		},
	})
	Register(Spec{
		Name: "storm-500",
		Description: "forged-TC broadcast storm beside the victim in a " +
			"500-node grid — the densest population of the corpus",
		Seed:      1,
		Nodes:     500,
		ArenaSide: 3000,
		Scale:     true,
		Radio:     RadioSpec{Medium: "grid"},
		Duration:  Dur(30 * time.Second),
		Attacks: []AttackSpec{
			{Kind: "storm", Node: 2, Peer: 4, Target: 3, At: Dur(10 * time.Second), For: Dur(15 * time.Second)},
		},
	})
	Register(Spec{
		Name:        "storm-500-mobile",
		Description: "the 500-node storm scenario under 2 m/s random-waypoint mobility",
		Seed:        1,
		Nodes:       500,
		ArenaSide:   3000,
		Scale:       true,
		Radio:       RadioSpec{Medium: "grid"},
		Mobility:    MobilitySpec{Model: "waypoint", MaxSpeed: 2},
		Duration:    Dur(30 * time.Second),
		Attacks: []AttackSpec{
			{Kind: "storm", Node: 2, Peer: 4, Target: 3, At: Dur(10 * time.Second), For: Dur(15 * time.Second)},
		},
	})
}

// x5Baselines is the full X5 baseline-attack scenario: black hole, forged
// broadcast storm and replay on the 4-node chain. The storm and black
// hole are declarative; the replay choreography — a sniffer capturing
// node 3's genuine TCs, a node bounce to advance its ANSN, and the
// delayed re-injection — needs the Custom hook.
func x5Baselines() Spec {
	replayer := func(w *core.Network) {
		// Replay: a monitor near the victim records several of node 3's
		// genuine TCs, and the compromised radio re-injects them after the
		// duplicate hold time has expired — each distinct old message earns
		// the receiver a stale-sequence drop (identical copies would be mere
		// duplicates).
		var captured [][]byte
		seenSeq := make(map[uint16]bool)
		w.Medium.Attach(addr.NodeAt(90), func() geo.Point { return geo.Pt(100, 1) }, func(f radio.Frame) {
			if len(captured) >= 3 || len(f.Payload) < 2 || f.Payload[0] != core.PayloadOLSR {
				return
			}
			pkt, err := wire.DecodePacket(f.Payload[1:])
			if err != nil {
				return
			}
			for _, m := range pkt.Messages {
				// Forwarded copies repeat the message sequence number; only
				// distinct originals are worth replaying (identical copies
				// would be dropped as duplicates, not as stale).
				if m.Type() == wire.MsgTC && m.Originator == addr.NodeAt(3) && !seenSeq[m.Seq] {
					seenSeq[m.Seq] = true
					captured = append(captured, append([]byte{}, f.Payload...))
					break
				}
			}
		})
		// Bounce node 4 so node 3's selector set (and hence its ANSN)
		// advances after the capture: the replayed TC becomes genuinely stale
		// (RFC 3626 sequence protection — exactly what the replay signature
		// watches receivers log).
		w.Sched.After(75*time.Second, func() {
			w.Node(addr.NodeAt(4)).Router.Stop()
			w.Medium.SetDown(addr.NodeAt(4), true)
		})
		w.Sched.After(85*time.Second, func() {
			w.Medium.SetDown(addr.NodeAt(4), false)
			w.Node(addr.NodeAt(4)).Router.Start()
		})
		w.Sched.After(100*time.Second, func() {
			rp := &attack.Replayer{Delay: time.Second, Copies: 1}
			for _, raw := range captured {
				rp.Capture(w.Sched, func(b []byte) {
					w.Send(addr.NodeAt(2), addr.Broadcast, b)
				}, raw)
			}
		})
	}
	return Spec{
		Name: "baselines-x5",
		Description: "the X5 combo: black hole + masqueraded TC storm + replay of stale " +
			"TCs on the 4-node chain (DESIGN.md §4)",
		Seed:      1,
		Nodes:     4,
		Positions: x5Line(),
		Radio:     RadioSpec{Range: 120},
		Duration:  Dur(2 * time.Minute),
		Attacks: []AttackSpec{
			{Kind: "blackhole", Node: 3},
			{Kind: "storm", Node: 2, Peer: 4, Target: 3, At: Dur(40 * time.Second), For: Dur(30 * time.Second)},
		},
		Custom: replayer,
	}
}
